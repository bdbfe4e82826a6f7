package store

import (
	"bytes"
	"math/rand"
	"testing"
)

// Fuzz targets for the two decode surfaces that face disk bytes. The
// contract under corruption — truncated files, flipped bits, hostile
// lengths — is: error or clean prefix recovery, never a panic, never a
// giant allocation, and never garbage admitted past validation.

// seedWALImages builds a few valid WAL images (empty, records only,
// records after compaction-sized payloads) to anchor the corpus.
func seedWALImages() [][]byte {
	rng := rand.New(rand.NewSource(42))
	var out [][]byte

	out = append(out, append([]byte(nil), walMagic...))

	img := append([]byte(nil), walMagic...)
	seq := uint64(0)
	for _, o := range genOps(rng, 6) {
		if o.kind == opPutDataset {
			o.id = "ds-1"
		}
		if o.kind == opDeleteDataset {
			continue
		}
		seq++
		img = append(img, encodeWALRecord(seq, o)...)
		if seq == 3 {
			// Rotate: the remaining records go to a second segment.
			img = append(img, walMagic...)
		}
	}
	out = append(out, img)
	return out
}

// splitSegments cuts a fuzz input into a segment set: a new segment
// starts at every occurrence of the WAL magic after offset 0.
func splitSegments(data []byte) []segment {
	var segs []segment
	for start := 0; ; {
		next := bytes.Index(data[min(start+1, len(data)):], walMagic)
		if next < 0 {
			return append(segs, segment{index: len(segs), data: data[start:]})
		}
		end := min(start+1, len(data)) + next
		segs = append(segs, segment{index: len(segs), data: data[start:end]})
		start = end
	}
}

// FuzzWALReplay fuzzes replay of a segment set (the input split at each
// WAL magic): error or a clean prefix, never a panic.
func FuzzWALReplay(f *testing.F) {
	for _, img := range seedWALImages() {
		f.Add(img)
		// Truncations and a bit flip of each seed give the mutator
		// realistic torn/corrupt starting points.
		if len(img) > 12 {
			f.Add(img[:len(img)-5])
			flipped := append([]byte(nil), img...)
			flipped[len(flipped)/2] ^= 0x10
			f.Add(flipped)
		}
	}
	f.Add([]byte("DBSHWAL1"))
	f.Add([]byte("DBSHWAL1DBSHWAL1"))
	f.Add([]byte("DBSHSNP1 wrong file kind"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		segs := splitSegments(data)
		recs, goodSizes, err := replaySegments(segs)
		if len(segs) == 1 {
			// One segment is the single-file log: replay must agree.
			recs1, good1, err1 := replayWAL(data)
			if (err == nil) != (err1 == nil) || len(recs1) != len(recs) || (err == nil && good1 != goodSizes[0]) {
				t.Fatalf("one-segment replay differs from replayWAL: %d/%d recs, err %v/%v", len(recs), len(recs1), err, err1)
			}
		}
		if err != nil {
			return
		}
		torn := false
		for i, s := range segs {
			good := goodSizes[i]
			if good < 0 || good > int64(len(s.data)) {
				t.Fatalf("segment %d: goodSize %d outside [0, %d]", s.index, good, len(s.data))
			}
			segRecs, _, _ := replayWAL(s.data)
			if torn && len(segRecs) > 0 {
				t.Fatalf("segment %d: records accepted after a torn segment", s.index)
			}
			if len(segRecs) > 0 && good < int64(len(walMagic)) {
				t.Fatalf("segment %d: %d records decoded from a file shorter than the header", s.index, len(segRecs))
			}
			torn = torn || good < int64(len(s.data))
		}
		// Whatever replayed must apply cleanly and re-encode: the ops
		// passed the same validation the write path uses.
		m := NewMemory()
		var lastSeq uint64
		for _, r := range recs {
			if r.seq <= lastSeq {
				t.Fatalf("replay returned non-monotonic seq %d after %d", r.seq, lastSeq)
			}
			lastSeq = r.seq
			r.op.apply(m)
		}
		state := encodeState(m)
		if _, err := decodeState(state); err != nil {
			t.Fatalf("replayed state does not round-trip: %v", err)
		}
		// Replay is a prefix: truncating every segment to its good size
		// must reproduce it.
		cut := make([]segment, len(segs))
		for i, s := range segs {
			cut[i] = segment{index: s.index, data: s.data[:goodSizes[i]]}
		}
		recs2, goodSizes2, err := replaySegments(cut)
		if err != nil || len(recs2) != len(recs) {
			t.Fatalf("replay of truncated-to-good segments differs: %d/%d recs, err %v", len(recs2), len(recs), err)
		}
		for i := range cut {
			if goodSizes2[i] != goodSizes[i] {
				t.Fatalf("segment %d: good size %d after truncation, want %d", i, goodSizes2[i], goodSizes[i])
			}
		}
	})
}

func FuzzSnapshotDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	m := NewMemory()
	for _, o := range genOps(rng, 8) {
		if o.kind == opPutDataset {
			o.id = m.peekDatasetID(o.tenant)
		}
		o.apply(m)
	}
	f.Add(encodeSnapshot(12, m))
	f.Add(encodeSnapshot(0, NewMemory()))
	f.Add([]byte("DBSHSNP1"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		mem, seq, err := decodeSnapshot(data)
		if err != nil {
			return
		}
		// Anything accepted must be internally valid: every model passes
		// validation (checked inside decode) and the state re-encodes to
		// a decodable image with the same sequence floor.
		img := encodeSnapshot(seq, mem)
		mem2, seq2, err := decodeSnapshot(img)
		if err != nil {
			t.Fatalf("accepted snapshot does not round-trip: %v", err)
		}
		if seq2 != seq {
			t.Fatalf("sequence floor changed across round trip: %d != %d", seq2, seq)
		}
		if !bytes.Equal(encodeState(mem2), encodeState(mem)) {
			t.Fatal("state changed across round trip")
		}
	})
}
