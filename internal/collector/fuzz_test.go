package collector

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadCSV throws arbitrary byte streams at the CSV parser. The
// contract under attack: ReadCSV must never panic — malformed headers,
// ragged records, garbage numbers, NaN/Inf, quoting tricks all surface
// as errors — and any dataset it does accept must round-trip through
// WriteCSV/ReadCSV unchanged: the schema, every timestamp and
// categorical value exactly, every numeric cell bit for bit.
func FuzzReadCSV(f *testing.F) {
	f.Add("timestamp,cpu\n1,0.5\n2,0.7\n")
	f.Add("timestamp,cpu,cat:state\n1,0.5,ok\n2,0.7,degraded\n")
	f.Add("timestamp,cpu\n1,NaN\n2,+Inf\n3,-Inf\n")
	f.Add("timestamp,cpu\n1,0.5\n2\n")              // ragged row
	f.Add("timestamp,cpu\n2,0.5\n1,0.7\n")          // timestamps out of order
	f.Add("timestamp,cpu\n1,not-a-number\n")        // garbage value
	f.Add("time,cpu\n1,0.5\n")                      // wrong first column
	f.Add("timestamp\n1\n")                         // no attributes
	f.Add("")                                       // empty input
	f.Add("timestamp,cpu,cpu\n1,0.5,0.6\n")         // duplicate column
	f.Add("timestamp,cat:\n1,x\n")                  // empty categorical name
	f.Add("timestamp,\"a,b\"\n1,2\n")               // quoted header with comma
	f.Add("timestamp,cat:s\n1,\"v,w\"\n")           // quoted categorical value
	f.Add("timestamp,cpu\n9223372036854775808,1\n") // timestamp overflow
	f.Add("timestamp,cpu\n1,-0\n2,5e-324\n3,1.7976931348623157e308\n4,9007199254740993\n")

	f.Fuzz(func(t *testing.T, input string) {
		ds, err := ReadCSV(strings.NewReader(input)) // must not panic
		if err != nil {
			if ds != nil {
				t.Fatalf("ReadCSV returned both a dataset and error %v", err)
			}
			return
		}
		if ds.Rows() < 0 || ds.NumAttrs() < 1 {
			t.Fatalf("accepted dataset has %d rows, %d attrs", ds.Rows(), ds.NumAttrs())
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, ds); err != nil {
			t.Fatalf("accepted dataset failed to serialize: %v", err)
		}
		back, err := ReadCSV(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("round-trip re-read failed: %v\ncsv:\n%s", err, buf.String())
		}
		if d := datasetDiff(ds, back); d != "" {
			t.Fatalf("round trip changed the dataset: %s\ncsv:\n%s", d, buf.String())
		}
	})
}

// TestReadCSVRaggedRowsError pins the property the fuzzer probes: every
// ragged shape is an error, never a panic or a silently truncated table.
func TestReadCSVRaggedRowsError(t *testing.T) {
	cases := []string{
		"timestamp,a,b\n1,2\n",       // short row
		"timestamp,a\n1,2,3\n",       // long row
		"timestamp,a\n1,2\n2,3,4\n",  // mixed
		"timestamp,a,b\n1,2,3\n2,\n", // trailing short row
	}
	for _, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("ReadCSV accepted ragged csv:\n%s", in)
		}
	}
}
