package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"
)

// On-disk framing. The WAL is a sequence of segment files, each a magic
// header followed by CRC-framed records; the snapshot is a magic header
// followed by one CRC-framed payload. Frames are
//
//	u32 length | u32 crc32c(payload) | payload
//
// and a WAL payload is
//
//	u64 seq | op bytes (codec.go)
//
// Replay accepts the longest prefix of intact frames: a torn length
// word, a length running past EOF, or a CRC mismatch ends replay at
// the last good record (the file is truncated back to it), which is
// exactly the prefix-consistency the crash battery asserts. A frame
// whose CRC passes but whose op fails to decode is reported as an
// error instead — that is real corruption, not a torn tail.

var (
	walMagic  = []byte("DBSHWAL1")
	snapMagic = []byte("DBSHSNP1")
)

const frameHeaderSize = 8 // u32 length + u32 crc

// maxFrameSize rejects absurd length words before any allocation
// happens (a frame longer than this is corruption regardless of file
// size: uploads are capped far below it).
const maxFrameSize = 1 << 30

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// sealFrame fills in the frame header reserved at buf[off:], framing
// everything after it to the end of buf as the payload. Encoders leave
// the header's bytes in place and encode the payload straight after, so
// a frame is never copied to get its header.
func sealFrame(buf []byte, off int) []byte {
	payload := buf[off+frameHeaderSize:]
	binary.LittleEndian.PutUint32(buf[off:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[off+4:], crc32.Checksum(payload, castagnoli))
	return buf
}

// nextFrame parses the frame starting at off. ok is false when the
// bytes from off on do not contain one intact frame (torn tail);
// payload aliases data.
func nextFrame(data []byte, off int) (payload []byte, next int, ok bool) {
	if off+frameHeaderSize > len(data) {
		return nil, off, false
	}
	n := int(binary.LittleEndian.Uint32(data[off:]))
	crc := binary.LittleEndian.Uint32(data[off+4:])
	if n > maxFrameSize || off+frameHeaderSize+n > len(data) {
		return nil, off, false
	}
	payload = data[off+frameHeaderSize : off+frameHeaderSize+n]
	if crc32.Checksum(payload, castagnoli) != crc {
		return nil, off, false
	}
	return payload, off + frameHeaderSize + n, true
}

// walRecord is one decoded WAL entry.
type walRecord struct {
	seq uint64
	op  *op
}

// encodeWALRecord builds the full frame for an op at a sequence number
// in one exactly sized buffer.
func encodeWALRecord(seq uint64, o *op) []byte {
	e := encoder{buf: make([]byte, frameHeaderSize, frameHeaderSize+8+opSize(o))}
	e.u64(seq)
	e.op(o)
	return sealFrame(e.buf, 0)
}

// replayWAL parses a complete WAL image (header included). It returns
// the decoded records of the intact prefix and the byte offset the
// file should be truncated to (== len(data) when the file is fully
// intact). A file shorter than the header is treated as empty — the
// torn result of a crash during creation. A present-but-wrong magic is
// an error: that is not our file, and truncating it would destroy
// someone's data.
func replayWAL(data []byte) (recs []walRecord, goodSize int64, err error) {
	if len(data) < len(walMagic) {
		return nil, 0, nil
	}
	if string(data[:len(walMagic)]) != string(walMagic) {
		return nil, 0, fmt.Errorf("store: wal has unknown magic %q", data[:len(walMagic)])
	}
	off := len(walMagic)
	var lastSeq uint64
	for {
		payload, next, ok := nextFrame(data, off)
		if !ok {
			return recs, int64(off), nil
		}
		if len(payload) < 8 {
			return nil, 0, fmt.Errorf("store: wal record at offset %d shorter than its sequence number", off)
		}
		seq := binary.LittleEndian.Uint64(payload)
		if seq == 0 || (len(recs) > 0 && seq <= lastSeq) {
			return nil, 0, fmt.Errorf("store: wal sequence went backwards at offset %d (%d after %d)", off, seq, lastSeq)
		}
		o, err := decodeOp(payload[8:])
		if err != nil {
			return nil, 0, fmt.Errorf("store: wal record at offset %d (seq %d): %w", off, seq, err)
		}
		recs = append(recs, walRecord{seq: seq, op: o})
		lastSeq = seq
		off = next
	}
}

// segment is one WAL file as replay reads it.
type segment struct {
	index int
	data  []byte
}

// segmentName names the WAL segment with the given index. A store that
// never compacted has only segment 0, "wal" (the single-file layout of
// earlier versions, which therefore opens unchanged); each rotation
// opens the next index, "wal.1", "wal.2", and so on.
func segmentName(index int) string {
	if index == 0 {
		return walName
	}
	return walName + "." + strconv.Itoa(index)
}

// segmentIndex parses a segment file name; ok is false for any other
// file in the data directory.
func segmentIndex(name string) (index int, ok bool) {
	if name == walName {
		return 0, true
	}
	rest, ok := strings.CutPrefix(name, walName+".")
	if !ok {
		return 0, false
	}
	i, err := strconv.Atoi(rest)
	if err != nil || i <= 0 || strconv.Itoa(i) != rest {
		return 0, false
	}
	return i, true
}

// replaySegments parses a log's segments, oldest first. It returns the
// records of the log's intact prefix and, per segment, the offset that
// segment should be truncated to. Every segment but the newest was
// fsync'd before its successor was created, so the log ends at the
// first torn frame: a record in any later segment is corruption, and so
// is a sequence number that does not rise across segments.
func replaySegments(segs []segment) (recs []walRecord, goodSizes []int64, err error) {
	goodSizes = make([]int64, len(segs))
	torn := ""
	for i, s := range segs {
		name := segmentName(s.index)
		r, good, err := replayWAL(s.data)
		if err != nil {
			return nil, nil, fmt.Errorf("%w (in %s)", err, name)
		}
		if len(r) > 0 {
			if torn != "" {
				return nil, nil, fmt.Errorf("store: %s holds records after the torn tail of %s", name, torn)
			}
			if n := len(recs); n > 0 && r[0].seq <= recs[n-1].seq {
				return nil, nil, fmt.Errorf("store: wal sequence went backwards from %d to %d at the start of %s",
					recs[n-1].seq, r[0].seq, name)
			}
		}
		if recs == nil {
			recs = r // the common one-segment log replays without a copy
		} else {
			recs = append(recs, r...)
		}
		goodSizes[i] = good
		if good < int64(len(s.data)) && torn == "" {
			torn = name
		}
	}
	return recs, goodSizes, nil
}

// encodeSnapshot builds the full snapshot file image for a state at a
// sequence number: magic, frame header, seq and state in one buffer
// sized from the state's exact encoded length.
func encodeSnapshot(lastSeq uint64, m *Memory) []byte {
	m.mu.RLock()
	defer m.mu.RUnlock()
	head := len(snapMagic) + frameHeaderSize
	e := encoder{buf: make([]byte, head, head+8+stateSize(m))}
	copy(e.buf, snapMagic)
	e.u64(lastSeq)
	e.state(m)
	return sealFrame(e.buf, len(snapMagic))
}

// decodeSnapshot parses a snapshot file image into the state it holds
// and the sequence number it covers. Unlike the WAL there is no torn
// tail to tolerate: snapshots are written to a temp file, fsync'd, and
// atomically renamed into place, so anything invalid here is real
// corruption and an error.
func decodeSnapshot(data []byte) (*Memory, uint64, error) {
	if len(data) < len(snapMagic) || string(data[:len(snapMagic)]) != string(snapMagic) {
		return nil, 0, fmt.Errorf("store: snapshot missing magic")
	}
	payload, next, ok := nextFrame(data, len(snapMagic))
	if !ok {
		return nil, 0, fmt.Errorf("store: snapshot frame corrupt")
	}
	if next != len(data) {
		return nil, 0, fmt.Errorf("store: %d trailing bytes after snapshot frame", len(data)-next)
	}
	if len(payload) < 8 {
		return nil, 0, fmt.Errorf("store: snapshot payload shorter than its sequence number")
	}
	lastSeq := binary.LittleEndian.Uint64(payload)
	mem, err := decodeState(payload[8:])
	if err != nil {
		return nil, 0, err
	}
	return mem, lastSeq, nil
}
