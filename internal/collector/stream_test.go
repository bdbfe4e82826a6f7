package collector

import (
	"errors"
	"math"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"dbsherlock/internal/metrics"
)

// buildTrace makes a small mixed-schema dataset for round-trip tests.
func buildTrace(t *testing.T, rows int) *metrics.Dataset {
	t.Helper()
	ts := make([]int64, rows)
	cpu := make([]float64, rows)
	state := make([]string, rows)
	for i := range ts {
		ts[i] = int64(1000 + i)
		cpu[i] = float64(i) * 0.5
		if i%3 == 0 {
			state[i] = "waiting"
		} else {
			state[i] = "running"
		}
	}
	ds := metrics.MustNewDataset(ts)
	if err := ds.AddNumeric("cpu", cpu); err != nil {
		t.Fatal(err)
	}
	if err := ds.AddCategorical("state", state); err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestStreamCSVChunksMatchReadCSV(t *testing.T) {
	ds := buildTrace(t, 103)
	var buf strings.Builder
	if err := WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}

	whole, err := ReadCSV(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}

	var chunks []*metrics.Dataset
	if err := StreamCSV(strings.NewReader(buf.String()), 25, func(c *metrics.Dataset) error {
		chunks = append(chunks, c)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// 103 rows at chunk 25: 4 full chunks + a 3-row tail.
	if len(chunks) != 5 {
		t.Fatalf("got %d chunks, want 5", len(chunks))
	}
	row := 0
	for ci, c := range chunks {
		if c.NumAttrs() != whole.NumAttrs() {
			t.Fatalf("chunk %d has %d attrs, want %d", ci, c.NumAttrs(), whole.NumAttrs())
		}
		for i := 0; i < c.Rows(); i++ {
			if c.Timestamps()[i] != whole.Timestamps()[row] {
				t.Fatalf("chunk %d row %d: ts %d, want %d", ci, i, c.Timestamps()[i], whole.Timestamps()[row])
			}
			for a := 0; a < c.NumAttrs(); a++ {
				col, wcol := c.ColumnAt(a), whole.ColumnAt(a)
				if col.Attr != wcol.Attr {
					t.Fatalf("chunk %d attr %d: %v, want %v", ci, a, col.Attr, wcol.Attr)
				}
				if col.Attr.Type == metrics.Numeric {
					if col.Num[i] != wcol.Num[row] {
						t.Fatalf("chunk %d row %d attr %s: %v != %v", ci, i, col.Attr.Name, col.Num[i], wcol.Num[row])
					}
				} else if col.Cat[i] != wcol.Cat[row] {
					t.Fatalf("chunk %d row %d attr %s: %q != %q", ci, i, col.Attr.Name, col.Cat[i], wcol.Cat[row])
				}
			}
			row++
		}
	}
	if row != whole.Rows() {
		t.Fatalf("chunks carried %d rows, want %d", row, whole.Rows())
	}
}

func TestStreamCSVCallbackErrorAborts(t *testing.T) {
	ds := buildTrace(t, 60)
	var buf strings.Builder
	if err := WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("stop")
	calls := 0
	err := StreamCSV(strings.NewReader(buf.String()), 10, func(*metrics.Dataset) error {
		calls++
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the callback sentinel unwrapped", err)
	}
	if calls != 1 {
		t.Fatalf("callback ran %d times after erroring, want 1", calls)
	}
}

func TestStreamNDJSON(t *testing.T) {
	in := `{"ts": 100, "cpu": 1.5, "state": "ok", "io": 3}
{"state": "slow", "io": 4, "ts": 101, "cpu": null}

{"ts": 102, "cpu": 2.5, "state": "ok", "io": 5}
`
	var chunks []*metrics.Dataset
	if err := StreamNDJSON(strings.NewReader(in), 2, func(c *metrics.Dataset) error {
		chunks = append(chunks, c)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 2 {
		t.Fatalf("got %d chunks, want 2", len(chunks))
	}
	first := chunks[0]
	if first.Rows() != 2 || chunks[1].Rows() != 1 {
		t.Fatalf("chunk rows = %d,%d; want 2,1", first.Rows(), chunks[1].Rows())
	}
	// Schema is the sorted attribute names, independent of JSON key order.
	wantNames := []string{"cpu", "io", "state"}
	attrs := first.Attributes()
	if len(attrs) != len(wantNames) {
		t.Fatalf("got %d attrs, want %d", len(attrs), len(wantNames))
	}
	for i, a := range attrs {
		if a.Name != wantNames[i] {
			t.Fatalf("attr %d = %q, want %q", i, a.Name, wantNames[i])
		}
	}
	cpu, _ := first.Column("cpu")
	if cpu.Attr.Type != metrics.Numeric || cpu.Num[0] != 1.5 || !math.IsNaN(cpu.Num[1]) {
		t.Fatalf("cpu column = %+v, want [1.5, NaN] numeric", cpu)
	}
	state, _ := first.Column("state")
	if state.Attr.Type != metrics.Categorical || state.Cat[0] != "ok" || state.Cat[1] != "slow" {
		t.Fatalf("state column = %+v, want categorical [ok slow]", state)
	}
	if first.Timestamps()[0] != 100 || first.Timestamps()[1] != 101 {
		t.Fatalf("timestamps = %v", first.Timestamps())
	}
}

func TestStreamNDJSONErrors(t *testing.T) {
	cases := map[string]string{
		"empty stream":        "",
		"missing ts":          `{"cpu": 1}`,
		"non-numeric ts":      `{"ts": "x", "cpu": 1}`,
		"fractional ts":       `{"ts": 1.5, "cpu": 1}`,
		"ts above int64":      `{"ts": 9.3e18, "cpu": 1}`,
		"ts far above int64":  `{"ts": 1e300, "cpu": 1}`,
		"ts below int64":      `{"ts": -9.3e18, "cpu": 1}`,
		"later fractional ts": "{\"ts\":1,\"cpu\":1}\n{\"ts\":2.25,\"cpu\":1}",
		"no attributes":       `{"ts": 1}`,
		"bad json":            `{"ts": 1, "cpu":`,
		"schema width change": "{\"ts\":1,\"cpu\":1}\n{\"ts\":2,\"cpu\":1,\"io\":2}",
		"schema name change":  "{\"ts\":1,\"cpu\":1}\n{\"ts\":2,\"io\":2}",
		"kind flip":           "{\"ts\":1,\"cpu\":1}\n{\"ts\":2,\"cpu\":\"hot\"}",
		"exponent ts":         `{"ts": 1e3, "cpu": 1}`,
		"ts with a fraction":  `{"ts": 100.0, "cpu": 1}`,
		"ts above 2^63":       `{"ts": 9223372036854775808, "cpu": 1}`,
		"attribute overflow":  `{"ts": 1, "cpu": 1e400}`,
		"data after sample":   `{"ts": 1, "cpu": 1} {"ts": 2, "cpu": 1}`,
	}
	for name, in := range cases {
		if err := StreamNDJSON(strings.NewReader(in), 0, func(*metrics.Dataset) error { return nil }); err == nil {
			t.Errorf("%s: no error", name)
		}
	}

	// Errors name the 1-based physical line, blank lines counted.
	lines := []struct {
		name, in string
		line     int
	}{
		{"first line", `{"cpu": 1}`, 1},
		{"after a blank line", "{\"ts\":1,\"cpu\":1}\n\n{\"ts\":2}", 3},
		{"after blank lines", "\n{\"ts\":1,\"cpu\":1}\n\n{\"ts\":2,\"cpu\":\"x\"}", 4},
		{"bad json after blanks", "\n\n\n{\"ts\":", 4},
		{"attribute overflow", "{\"ts\":1,\"cpu\":1}\n\n  \n{\"ts\":2,\"cpu\":-1e999}", 4},
		{"exact ts out of range", "\n{\"ts\":-9223372036854775809,\"cpu\":1}", 2},
	}
	lineRE := regexp.MustCompile(`ndjson line (\d+)\b`)
	for _, tc := range lines {
		err := StreamNDJSON(strings.NewReader(tc.in), 0, func(*metrics.Dataset) error { return nil })
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if m := lineRE.FindStringSubmatch(err.Error()); m == nil || m[1] != strconv.Itoa(tc.line) {
			t.Errorf("%s: err = %v, want it to name ndjson line %d", tc.name, err, tc.line)
		}
	}
}

// TestStreamNDJSONExactTimestamp pins "ts" to an exact int64: 2^53+1
// does not survive a float64, so a float decode would store 2^53.
func TestStreamNDJSONExactTimestamp(t *testing.T) {
	in := "{\"ts\":9007199254740993,\"cpu\":0.1}\n{\"ts\":9223372036854775807,\"cpu\":2}\n"
	var got []int64
	if err := StreamNDJSON(strings.NewReader(in), 0, func(c *metrics.Dataset) error {
		got = append(got, c.Timestamps()...)
		cpu, _ := c.Column("cpu")
		if cpu.Num[0] != 0.1 || cpu.Num[1] != 2 {
			t.Errorf("cpu column = %v, want [0.1 2]", cpu.Num)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := []int64{9007199254740993, math.MaxInt64}; !slices.Equal(got, want) {
		t.Fatalf("timestamps = %v, want %v", got, want)
	}
}
