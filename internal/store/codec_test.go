package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"dbsherlock/internal/causal"
	"dbsherlock/internal/core"
	"dbsherlock/internal/metrics"
)

// encodeState is the canonical byte encoding of a state, the form every
// oracle comparison in this package's tests uses.
func encodeState(m *Memory) []byte {
	m.mu.RLock()
	defer m.mu.RUnlock()
	e := encoder{buf: make([]byte, 0, stateSize(m))}
	e.state(m)
	return e.buf
}

// ---- reference encoders ----
//
// Verbatim copies of the codec as it was before records and snapshots
// were encoded into one pre-sized buffer (each op encoded on its own,
// copied after the seq, copied again into the frame). The on-disk
// format must not change, so the production encoders are pinned to
// these byte for byte.

type refEncoder struct{ buf []byte }

func (e *refEncoder) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *refEncoder) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *refEncoder) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *refEncoder) f64(v float64) {
	e.u64(math.Float64bits(v))
}
func (e *refEncoder) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *refEncoder) dataset(ds *metrics.Dataset) {
	times := ds.Timestamps()
	e.u32(uint32(len(times)))
	for _, t := range times {
		e.u64(uint64(t))
	}
	e.u32(uint32(ds.NumAttrs()))
	for i := 0; i < ds.NumAttrs(); i++ {
		col := ds.ColumnAt(i)
		e.u8(uint8(col.Attr.Type))
		e.str(col.Attr.Name)
		switch col.Attr.Type {
		case metrics.Numeric:
			for _, v := range col.Num {
				e.f64(v)
			}
		case metrics.Categorical:
			for _, v := range col.Cat {
				e.str(v)
			}
		}
	}
}

func (e *refEncoder) model(m *causal.Model) {
	e.str(m.Cause)
	e.u32(uint32(m.Merged))
	e.u32(uint32(len(m.Predicates)))
	for _, p := range m.Predicates {
		e.str(p.Attr)
		e.u8(uint8(p.Type))
		var flags uint8
		if p.HasLower {
			flags |= 1
		}
		if p.HasUpper {
			flags |= 2
		}
		e.u8(flags)
		e.f64(p.Lower)
		e.f64(p.Upper)
		e.u32(uint32(len(p.Categories)))
		for _, c := range p.Categories {
			e.str(c)
		}
	}
	e.u32(uint32(len(m.Remediations)))
	for _, r := range m.Remediations {
		e.str(r)
	}
}

func refEncodeOp(o *op) []byte {
	var e refEncoder
	e.u8(o.kind)
	e.str(o.tenant)
	switch o.kind {
	case opPutDataset:
		e.str(o.id)
		e.dataset(o.ds)
	case opDeleteDataset:
		e.str(o.id)
	case opPutModel:
		e.model(o.model)
	case opReplaceModels:
		e.u32(uint32(len(o.models)))
		for _, m := range o.models {
			e.model(m)
		}
	}
	return e.buf
}

func refAppendFrame(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	return append(buf, payload...)
}

func refEncodeWALRecord(seq uint64, o *op) []byte {
	payload := make([]byte, 0, 8+64)
	payload = binary.LittleEndian.AppendUint64(payload, seq)
	payload = append(payload, refEncodeOp(o)...)
	return refAppendFrame(nil, payload)
}

func refEncodeSnapshot(lastSeq uint64, state []byte) []byte {
	payload := make([]byte, 0, 8+len(state))
	payload = binary.LittleEndian.AppendUint64(payload, lastSeq)
	payload = append(payload, state...)
	out := make([]byte, 0, len(snapMagic)+frameHeaderSize+len(payload))
	out = append(out, snapMagic...)
	return refAppendFrame(out, payload)
}

func refEncodeState(m *Memory) []byte {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var e refEncoder
	e.u32(uint32(len(m.tenantOrder)))
	for _, name := range m.tenantOrder {
		ts := m.tenants[name]
		e.str(name)
		e.u32(uint32(ts.nextID))
		e.u32(uint32(len(ts.dsOrder)))
		for _, id := range ts.dsOrder {
			e.str(id)
			e.dataset(ts.datasets[id])
		}
		e.u32(uint32(len(ts.modelOrder)))
		for _, cause := range ts.modelOrder {
			e.model(ts.models[cause])
		}
	}
	return e.buf
}

// pinOps is genOps (NaN, ±Inf, categorical columns, three tenants,
// every op kind) plus edge shapes genOps never draws: an empty
// categorical value, a model with every optional field empty, and an
// empty bank replacement.
func pinOps(t *testing.T) []*op {
	t.Helper()
	ops := genOps(rand.New(rand.NewSource(11)), 60)
	ds, err := metrics.NewDataset([]int64{-5, 0, 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.AddNumeric("x", []float64{math.Inf(-1), math.NaN(), -0.0}); err != nil {
		t.Fatal(err)
	}
	if err := ds.AddCategorical("c", []string{"", "é", "long value with spaces"}); err != nil {
		t.Fatal(err)
	}
	bare := &causal.Model{Cause: "bare", Merged: 1, Predicates: []core.Predicate{
		{Attr: "x", Type: metrics.Numeric, HasUpper: true, Upper: math.Inf(1)},
	}}
	return append(ops,
		&op{kind: opPutDataset, tenant: "edge", ds: ds},
		&op{kind: opPutModel, tenant: "edge", model: bare},
		&op{kind: opReplaceModels, tenant: "edge"},
		&op{kind: opDeleteDataset, tenant: "edge", id: "ds-9"},
	)
}

// TestEncodingMatchesReference pins the one-buffer encoders to the
// reference copies byte for byte — every WAL record, and the snapshot
// and state of every prefix of the op sequence — and checks that each
// buffer was sized exactly (no regrowth, no slack).
func TestEncodingMatchesReference(t *testing.T) {
	m := NewMemory()
	check := func(seq uint64) {
		t.Helper()
		state := encodeState(m)
		if want := refEncodeState(m); !bytes.Equal(state, want) {
			t.Fatalf("seq %d: encodeState differs from the reference (%d vs %d bytes)", seq, len(state), len(want))
		}
		if len(state) != cap(state) {
			t.Fatalf("seq %d: state buffer sized %d for %d bytes", seq, cap(state), len(state))
		}
		snap := encodeSnapshot(seq, m)
		if want := refEncodeSnapshot(seq, refEncodeState(m)); !bytes.Equal(snap, want) {
			t.Fatalf("seq %d: encodeSnapshot differs from the reference", seq)
		}
		if len(snap) != cap(snap) {
			t.Fatalf("seq %d: snapshot buffer sized %d for %d bytes", seq, cap(snap), len(snap))
		}
	}
	check(0)
	for i, o := range pinOps(t) {
		seq := uint64(i + 1)
		if o.kind == opPutDataset {
			o.id = m.peekDatasetID(o.tenant)
		}
		rec := encodeWALRecord(seq, o)
		if want := refEncodeWALRecord(seq, o); !bytes.Equal(rec, want) {
			t.Fatalf("op %d (kind %d): encodeWALRecord differs from the reference", i, o.kind)
		}
		if len(rec) != cap(rec) {
			t.Fatalf("op %d (kind %d): record buffer sized %d for %d bytes", i, o.kind, cap(rec), len(rec))
		}
		o.apply(m)
		check(seq)
	}
	if len(m.Tenants()) < 3 {
		t.Fatalf("pinned states span %d tenants, want several", len(m.Tenants()))
	}
}

// TestParentLayoutOpens opens data directories written by the
// single-file layout (one wal, at most one snapshot) and requires the
// recovered state to equal, byte for byte, the encodeState that version
// computed at close. "compacted" crossed compaction several times;
// "rename-gap" is a snapshot published over a wal that still holds the
// records it covers (the old layout's crash between its two renames).
func TestParentLayoutOpens(t *testing.T) {
	for _, name := range []string{"compacted", "rename-gap"} {
		t.Run(name, func(t *testing.T) {
			src := filepath.Join("testdata", "parent-layout", name)
			want, err := os.ReadFile(src + ".state")
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			for _, f := range []string{walName, snapName} {
				data, err := os.ReadFile(filepath.Join(src, f))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, f), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			ro, err := OpenDurableReadOnly(dir)
			if err != nil {
				t.Fatalf("read-only open: %v", err)
			}
			if got := encodeState(ro.mem); !bytes.Equal(got, want) {
				t.Fatal("read-only open recovered a different state")
			}
			if err := ro.Close(); err != nil {
				t.Fatal(err)
			}

			d, err := OpenDurable(dir, WithCompactEvery(1))
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			if got := encodeState(d.mem); !bytes.Equal(got, want) {
				t.Fatal("open recovered a different state")
			}
			// The first write past the threshold rotates the old single
			// file into the segment layout; the state survives that too.
			if err := d.PutModel("golden", testModel("after upgrade", 1)); err != nil {
				t.Fatal(err)
			}
			want2 := encodeState(d.mem)
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(filepath.Join(dir, walName)); !os.IsNotExist(err) {
				t.Fatalf("compaction left the old wal behind (stat: %v)", err)
			}
			d2, err := OpenDurable(dir)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer d2.Close()
			if got := encodeState(d2.mem); !bytes.Equal(got, want2) {
				t.Fatal("state changed across the first rotation")
			}
		})
	}
}
