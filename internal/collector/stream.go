package collector

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"dbsherlock/internal/metrics"
)

// DefaultChunkRows is the flush granularity StreamCSV and StreamNDJSON
// use when the caller passes chunkRows <= 0. 256 rows keeps per-chunk
// Dataset overhead negligible while bounding how much of an unbounded
// agent stream is buffered before it reaches the ingest registry.
const DefaultChunkRows = 256

// chunkBuilder accumulates decoded rows column-by-column and flushes
// them as immutable Datasets. The schema (names + kinds) is fixed by
// whoever constructs it and shared across every flushed chunk, which is
// exactly what the ingest registry's per-instance schema check needs.
type chunkBuilder struct {
	names []string
	cat   []bool
	ts    []int64
	num   [][]float64
	str   [][]string

	// interned deduplicates categorical strings across chunks so a
	// long-running stream retains one copy per distinct value, not one
	// per row (same policy as ReadCSV).
	interned map[string]string
}

func newChunkBuilder(names []string, cat []bool) *chunkBuilder {
	b := &chunkBuilder{names: names, cat: cat, interned: make(map[string]string)}
	b.num = make([][]float64, len(names))
	b.str = make([][]string, len(names))
	return b
}

func (b *chunkBuilder) rows() int { return len(b.ts) }

func (b *chunkBuilder) intern(s string) string {
	if v, ok := b.interned[s]; ok {
		return v
	}
	v := strings.Clone(s)
	b.interned[v] = v
	return v
}

// flush builds a Dataset from the buffered rows and resets the buffers.
// The column slices are handed to the Dataset (which retains them), so
// fresh backing arrays are started for the next chunk.
func (b *chunkBuilder) flush() (*metrics.Dataset, error) {
	ds, err := metrics.NewDataset(b.ts)
	if err != nil {
		return nil, err
	}
	for c := range b.names {
		if b.cat[c] {
			vals := b.str[c]
			if vals == nil {
				vals = []string{}
			}
			err = ds.AddCategorical(b.names[c], vals)
		} else {
			vals := b.num[c]
			if vals == nil {
				vals = []float64{}
			}
			err = ds.AddNumeric(b.names[c], vals)
		}
		if err != nil {
			return nil, err
		}
		b.num[c], b.str[c] = nil, nil
	}
	b.ts = nil
	return ds, nil
}

// StreamCSV decodes a WriteCSV-format stream incrementally: every
// chunkRows decoded rows (<= 0: DefaultChunkRows) are flushed as one
// Dataset to fn, so an unbounded agent stream is never materialized
// whole. The schema is fixed by the header and identical across chunks;
// fn returning an error aborts the decode and is returned unwrapped so
// callers (the ingest endpoint) can map their own sentinel errors.
// Records decode as in ReadCSV, through the same decoder, so every
// value and error is the one ReadCSV gives for the same text.
func StreamCSV(r io.Reader, chunkRows int, fn func(*metrics.Dataset) error) error {
	if chunkRows <= 0 {
		chunkRows = DefaultChunkRows
	}
	dec, err := newCSVDecoder(r)
	if err != nil {
		return err
	}
	b := newChunkBuilder(dec.names, dec.cat)
	for {
		ok, err := dec.next(b)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if b.rows() >= chunkRows {
			ds, err := b.flush()
			if err != nil {
				return fmt.Errorf("collector: %w", err)
			}
			if err := fn(ds); err != nil {
				return err
			}
		}
	}
	if b.rows() > 0 {
		ds, err := b.flush()
		if err != nil {
			return fmt.Errorf("collector: %w", err)
		}
		return fn(ds)
	}
	return nil
}

// maxNDJSONLine caps one NDJSON sample line (1 MiB). A single
// per-second sample is a few hundred bytes even with the full ~130
// paper attributes; a megabyte line is a broken agent, not a sample.
const maxNDJSONLine = 1 << 20

// ndjsonTimeKey is the required timestamp field of every NDJSON sample.
const ndjsonTimeKey = "ts"

// StreamNDJSON decodes newline-delimited JSON samples: one object per
// line with a "ts" field plus one field per attribute — JSON numbers
// become numeric attributes (null reads as NaN), JSON strings
// categorical ones. "ts" is an integer number of unix seconds within
// int64 range, written without fraction or exponent: it is parsed as
// an int64, exactly, and anything else is an error, as it is in
// StreamCSV. Attribute numbers are parsed as StreamCSV parses them, so
// an out-of-range one is an error. The first line fixes the schema
// (attribute names sorted, so the column order is deterministic
// regardless of JSON key order); later lines must carry exactly the
// same fields. Errors name the 1-based line, blank lines counted.
// Every chunkRows rows (<= 0: DefaultChunkRows) are flushed as one
// Dataset to fn, as in StreamCSV.
func StreamNDJSON(r io.Reader, chunkRows int, fn func(*metrics.Dataset) error) error {
	if chunkRows <= 0 {
		chunkRows = DefaultChunkRows
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxNDJSONLine)

	var b *chunkBuilder
	var kinds map[string]bool // name -> categorical?
	line := 0
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 {
			continue
		}
		obj, err := decodeSample(text)
		if err != nil {
			return fmt.Errorf("collector: ndjson line %d: %w", line, err)
		}
		tsv, ok := obj[ndjsonTimeKey]
		if !ok {
			return fmt.Errorf("collector: ndjson line %d: missing %q field", line, ndjsonTimeKey)
		}
		num, _ := tsv.(json.Number) // any other type leaves "", which ParseInt refuses
		ts, err := strconv.ParseInt(string(num), 10, 64)
		if err != nil {
			return fmt.Errorf("collector: ndjson line %d: %q must be an integer number of unix seconds, got %v",
				line, ndjsonTimeKey, tsv)
		}
		delete(obj, ndjsonTimeKey)

		if b == nil {
			names := make([]string, 0, len(obj))
			for k := range obj {
				names = append(names, k)
			}
			sort.Strings(names)
			if len(names) == 0 {
				return fmt.Errorf("collector: ndjson line %d: sample carries no attributes", line)
			}
			cat := make([]bool, len(names))
			kinds = make(map[string]bool, len(names))
			for i, name := range names {
				_, isStr := obj[name].(string)
				cat[i] = isStr
				kinds[name] = isStr
			}
			b = newChunkBuilder(names, cat)
		}
		if len(obj) != len(b.names) {
			return fmt.Errorf("collector: ndjson line %d has %d attributes, schema has %d",
				line, len(obj), len(b.names))
		}
		for c, name := range b.names {
			v, ok := obj[name]
			if !ok {
				return fmt.Errorf("collector: ndjson line %d: missing attribute %q", line, name)
			}
			if kinds[name] {
				s, ok := v.(string)
				if !ok {
					return fmt.Errorf("collector: ndjson line %d: attribute %q must be a string", line, name)
				}
				b.str[c] = append(b.str[c], b.intern(s))
				continue
			}
			switch x := v.(type) {
			case json.Number:
				f, err := parseFloat(string(x))
				if err != nil {
					return fmt.Errorf("collector: ndjson line %d: attribute %q: %w", line, name, err)
				}
				b.num[c] = append(b.num[c], f)
			case nil:
				b.num[c] = append(b.num[c], math.NaN())
			default:
				return fmt.Errorf("collector: ndjson line %d: attribute %q must be a number", line, name)
			}
		}
		b.ts = append(b.ts, ts)
		if b.rows() >= chunkRows {
			ds, err := b.flush()
			if err != nil {
				return fmt.Errorf("collector: %w", err)
			}
			if err := fn(ds); err != nil {
				return err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("collector: ndjson: %w", err)
	}
	if b == nil {
		return fmt.Errorf("collector: empty ndjson stream")
	}
	if b.rows() > 0 {
		ds, err := b.flush()
		if err != nil {
			return fmt.Errorf("collector: %w", err)
		}
		return fn(ds)
	}
	return nil
}

// decodeSample decodes one NDJSON line as a JSON object, its numbers
// kept as their text (json.Number) for StreamNDJSON to parse. Anything
// after the object is an error, as it is for json.Unmarshal.
func decodeSample(line []byte) (map[string]any, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.UseNumber()
	var obj map[string]any
	if err := dec.Decode(&obj); err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("data after the sample object")
	}
	return obj, nil
}
