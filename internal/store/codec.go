package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"dbsherlock/internal/causal"
	"dbsherlock/internal/core"
	"dbsherlock/internal/metrics"
)

// Binary codec for WAL records and snapshots. JSON is unusable here —
// datasets legitimately contain NaN and ±Inf samples — so values are
// encoded as raw IEEE-754 bits. Everything is little-endian, strings
// and slices are u32-length-prefixed, and every decode is
// bounds-checked against the remaining input so corrupt or adversarial
// bytes produce an error (never a panic and never an absurd
// allocation; see FuzzWALReplay / FuzzSnapshotDecode).

// Op kinds, stable on disk: renumbering breaks existing logs.
const (
	opPutDataset    = 1
	opDeleteDataset = 2
	opPutModel      = 3
	opReplaceModels = 4
)

var errCorrupt = errors.New("store: corrupt record")

// op is one logical mutation, the unit of WAL replay. Exactly the
// fields for the kind are set.
type op struct {
	kind   uint8
	tenant string
	id     string           // dataset ops
	ds     *metrics.Dataset // opPutDataset
	model  *causal.Model    // opPutModel
	models []*causal.Model  // opReplaceModels
}

// apply routes the op through the Memory backend's apply methods, so
// replay and live execution share one definition of each operation.
func (o *op) apply(m *Memory) {
	switch o.kind {
	case opPutDataset:
		m.applyPutDataset(o.tenant, o.id, o.ds)
	case opDeleteDataset:
		m.applyDeleteDataset(o.tenant, o.id)
	case opPutModel:
		m.applyPutModel(o.tenant, o.model)
	case opReplaceModels:
		m.applyReplaceModels(o.tenant, o.models)
	}
}

// ---- encoding ----

// encoder appends to buf. Every caller sizes buf once from the exact
// encoded length (the *Size functions below), so a WAL record or a
// snapshot encodes into one allocation with no regrowth or copying.
type encoder struct{ buf []byte }

func (e *encoder) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *encoder) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *encoder) f64(v float64) {
	e.u64(math.Float64bits(v))
}
func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *encoder) dataset(ds *metrics.Dataset) {
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

func (e *encoder) model(m *causal.Model) {
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

// op serializes one op (the WAL payload after its sequence number).
func (e *encoder) op(o *op) {
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
}

// state serializes the complete materialized state in deterministic
// insertion order. Two Memory stores that went through equivalent op
// sequences produce byte-identical encodings, which is what the crash
// battery's oracle comparison relies on. Caller holds m.mu.
func (e *encoder) state(m *Memory) {
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
}

// Exact encoded lengths, one per encoder method above. A wrong size
// would cost a regrowth or slack, never different bytes;
// TestEncodingMatchesReference pins every buffer to its exact length.

func strSize(s string) int { return 4 + len(s) }

func datasetSize(ds *metrics.Dataset) int {
	n := 4 + 8*ds.Rows() + 4
	for i := 0; i < ds.NumAttrs(); i++ {
		col := ds.ColumnAt(i)
		n += 1 + strSize(col.Attr.Name)
		switch col.Attr.Type {
		case metrics.Numeric:
			n += 8 * len(col.Num)
		case metrics.Categorical:
			for _, v := range col.Cat {
				n += strSize(v)
			}
		}
	}
	return n
}

func modelSize(m *causal.Model) int {
	n := strSize(m.Cause) + 4 + 4
	for _, p := range m.Predicates {
		n += strSize(p.Attr) + 1 + 1 + 8 + 8 + 4
		for _, c := range p.Categories {
			n += strSize(c)
		}
	}
	n += 4
	for _, r := range m.Remediations {
		n += strSize(r)
	}
	return n
}

func opSize(o *op) int {
	n := 1 + strSize(o.tenant)
	switch o.kind {
	case opPutDataset:
		n += strSize(o.id) + datasetSize(o.ds)
	case opDeleteDataset:
		n += strSize(o.id)
	case opPutModel:
		n += modelSize(o.model)
	case opReplaceModels:
		n += 4
		for _, m := range o.models {
			n += modelSize(m)
		}
	}
	return n
}

// stateSize is the encoded length of m's state. Caller holds m.mu.
func stateSize(m *Memory) int {
	n := 4
	for _, name := range m.tenantOrder {
		ts := m.tenants[name]
		n += strSize(name) + 4 + 4
		for _, id := range ts.dsOrder {
			n += strSize(id) + datasetSize(ts.datasets[id])
		}
		n += 4
		for _, cause := range ts.modelOrder {
			n += modelSize(ts.models[cause])
		}
	}
	return n
}

// ---- decoding ----

type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = errCorrupt
	}
}

func (d *decoder) remaining() int { return len(d.buf) - d.off }

func (d *decoder) u8() uint8 {
	if d.err != nil || d.remaining() < 1 {
		d.fail()
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *decoder) u32() uint32 {
	if d.err != nil || d.remaining() < 4 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil || d.remaining() < 8 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *decoder) str() string {
	n := int(d.u32())
	if d.err != nil || n < 0 || d.remaining() < n {
		d.fail()
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

// count reads a u32 element count and rejects values that could not
// possibly fit in the remaining bytes (each element needs at least
// elemSize bytes), so a flipped length bit cannot trigger a giant
// allocation.
func (d *decoder) count(elemSize int) int {
	n := int(d.u32())
	if d.err != nil {
		return 0
	}
	// Compare by division: n*elemSize can wrap to a small positive
	// value where int is 32 bits, letting a corrupt length word through.
	if n < 0 || n > d.remaining()/elemSize {
		d.fail()
		return 0
	}
	return n
}

func (d *decoder) dataset() *metrics.Dataset {
	rows := d.count(8)
	times := make([]int64, rows)
	for i := range times {
		times[i] = int64(d.u64())
	}
	if d.err != nil {
		return nil
	}
	ds, err := metrics.NewDataset(times)
	if err != nil {
		d.err = fmt.Errorf("store: decode dataset: %w", err)
		return nil
	}
	ncols := d.count(1 + 4)
	for c := 0; c < ncols; c++ {
		typ := metrics.Type(d.u8())
		name := d.str()
		if d.err != nil {
			return nil
		}
		var addErr error
		switch typ {
		case metrics.Numeric:
			if d.remaining() < rows*8 {
				d.fail()
				return nil
			}
			vals := make([]float64, rows)
			for i := range vals {
				vals[i] = d.f64()
			}
			addErr = ds.AddNumeric(name, vals)
		case metrics.Categorical:
			vals := make([]string, rows)
			for i := range vals {
				vals[i] = d.str()
			}
			if d.err != nil {
				return nil
			}
			addErr = ds.AddCategorical(name, vals)
		default:
			d.err = fmt.Errorf("store: decode dataset: unknown column type %d", int(typ))
			return nil
		}
		if addErr != nil {
			d.err = fmt.Errorf("store: decode dataset: %w", addErr)
			return nil
		}
	}
	if d.err != nil {
		return nil
	}
	return ds
}

func (d *decoder) model() *causal.Model {
	m := &causal.Model{Cause: d.str(), Merged: int(d.u32())}
	npreds := d.count(4 + 1 + 1 + 8 + 8 + 4)
	for i := 0; i < npreds; i++ {
		p := core.Predicate{Attr: d.str(), Type: metrics.Type(d.u8())}
		flags := d.u8()
		p.HasLower = flags&1 != 0
		p.HasUpper = flags&2 != 0
		p.Lower = d.f64()
		p.Upper = d.f64()
		ncats := d.count(4)
		for j := 0; j < ncats; j++ {
			p.Categories = append(p.Categories, d.str())
		}
		if d.err != nil {
			return nil
		}
		m.Predicates = append(m.Predicates, p)
	}
	nrem := d.count(4)
	for i := 0; i < nrem; i++ {
		m.Remediations = append(m.Remediations, d.str())
	}
	if d.err != nil {
		return nil
	}
	if err := validateModel(m); err != nil {
		d.err = err
		return nil
	}
	return m
}

// decodeOp parses one op payload (without the WAL frame). Trailing
// bytes are corruption: a frame contains exactly one op.
func decodeOp(buf []byte) (*op, error) {
	d := &decoder{buf: buf}
	o := &op{kind: d.u8(), tenant: d.str()}
	if d.err == nil {
		if err := ValidTenant(o.tenant); err != nil {
			return nil, err
		}
	}
	switch o.kind {
	case opPutDataset:
		o.id = d.str()
		o.ds = d.dataset()
	case opDeleteDataset:
		o.id = d.str()
	case opPutModel:
		o.model = d.model()
	case opReplaceModels:
		n := d.count(4 + 4 + 4 + 4)
		for i := 0; i < n; i++ {
			m := d.model()
			if d.err != nil {
				break
			}
			o.models = append(o.models, m)
		}
	default:
		d.fail()
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.remaining() != 0 {
		return nil, fmt.Errorf("store: %d trailing bytes after op", d.remaining())
	}
	return o, nil
}

// ---- full-state snapshot payload ----

// decodeState rebuilds a Memory store from an encoded state (encoder.state).
func decodeState(buf []byte) (*Memory, error) {
	d := &decoder{buf: buf}
	m := NewMemory()
	ntenants := d.count(4 + 4 + 4 + 4)
	for i := 0; i < ntenants; i++ {
		name := d.str()
		if d.err == nil {
			if err := ValidTenant(name); err != nil {
				return nil, err
			}
		}
		ts := newTenantState()
		ts.nextID = int(d.u32())
		if d.err == nil && ts.nextID < 1 {
			return nil, fmt.Errorf("store: tenant %q has invalid dataset counter %d", name, ts.nextID)
		}
		nds := d.count(4 + 4)
		for j := 0; j < nds; j++ {
			id := d.str()
			ds := d.dataset()
			if d.err != nil {
				break
			}
			if _, dup := ts.datasets[id]; dup {
				return nil, fmt.Errorf("store: duplicate dataset %q in snapshot", id)
			}
			ts.datasets[id] = ds
			ts.dsOrder = append(ts.dsOrder, id)
		}
		nm := d.count(4 + 4 + 4 + 4)
		for j := 0; j < nm; j++ {
			mdl := d.model()
			if d.err != nil {
				break
			}
			if _, dup := ts.models[mdl.Cause]; dup {
				return nil, fmt.Errorf("store: duplicate cause %q in snapshot", mdl.Cause)
			}
			ts.models[mdl.Cause] = mdl
			ts.modelOrder = append(ts.modelOrder, mdl.Cause)
		}
		if d.err != nil {
			break
		}
		if _, dup := m.tenants[name]; dup {
			return nil, fmt.Errorf("store: duplicate tenant %q in snapshot", name)
		}
		m.tenants[name] = ts
		m.tenantOrder = append(m.tenantOrder, name)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.remaining() != 0 {
		return nil, fmt.Errorf("store: %d trailing bytes after snapshot state", d.remaining())
	}
	return m, nil
}
