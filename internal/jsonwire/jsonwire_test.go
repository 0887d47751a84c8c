package jsonwire_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"

	"lia/cluster"
	"lia/internal/jsonwire"
	"lia/serve"
)

// ingestLine mirrors the cluster ingest stream record.
type ingestLine struct {
	Ys [][]float64 `json:"ys"`
}

// sameFloats reports bitwise equality, nil versus empty included.
func sameFloats(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameSnapshot(a jsonwire.Snapshot, b serve.SnapshotPayload) bool {
	return sameFloats(a.Y, b.Y) && sameFloats(a.Frac, b.Frac) && a.Probes == b.Probes
}

func sameRows(a, b [][]float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameFloats(a[i], b[i]) {
			return false
		}
	}
	return true
}

// checkDecoders holds every fast-path decoder to encoding/json on one
// input: an accepted input must decode there too, to bitwise the same
// value.
func checkDecoders(t *testing.T, body []byte) {
	t.Helper()
	if in, ok := jsonwire.DecodeIngest(body); ok {
		var ref serve.IngestRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&ref); err != nil {
			t.Fatalf("DecodeIngest accepted %q, encoding/json: %v", body, err)
		}
		same := sameSnapshot(in.Snapshot, ref.SnapshotPayload) &&
			(in.Snapshots == nil) == (ref.Snapshots == nil) && len(in.Snapshots) == len(ref.Snapshots)
		for i := 0; same && i < len(in.Snapshots); i++ {
			same = sameSnapshot(in.Snapshots[i], ref.Snapshots[i])
		}
		if !same {
			t.Fatalf("DecodeIngest(%q) = %+v, encoding/json %+v", body, in, ref)
		}
	}
	if p, ok := jsonwire.DecodeSnapshot(body); ok {
		var ref serve.SnapshotPayload
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&ref); err != nil {
			t.Fatalf("DecodeSnapshot accepted %q, encoding/json: %v", body, err)
		}
		if !sameSnapshot(p, ref) {
			t.Fatalf("DecodeSnapshot(%q) = %+v, encoding/json %+v", body, p, ref)
		}
	}
	if rows, ok := jsonwire.DecodeRows(body, "ys"); ok {
		var ref ingestLine
		if err := json.Unmarshal(body, &ref); err != nil {
			t.Fatalf("DecodeRows accepted %q, encoding/json: %v", body, err)
		}
		if !sameRows(rows, ref.Ys) {
			t.Fatalf("DecodeRows(%q) = %v, encoding/json %v", body, rows, ref.Ys)
		}
	}
	if y, ok := jsonwire.DecodeFloats(body, "y"); ok {
		var ref cluster.InferRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&ref); err != nil {
			t.Fatalf("DecodeFloats accepted %q, encoding/json: %v", body, err)
		}
		if !sameFloats(y, ref.Y) {
			t.Fatalf("DecodeFloats(%q) = %v, encoding/json %v", body, y, ref.Y)
		}
	}
}

// checkCoverage asserts the fast paths accept what encoding/json writes for
// the values it decoded from body: the canonical shapes are exactly the
// encoder's output.
func checkCoverage(t *testing.T, body []byte) {
	t.Helper()
	var req serve.IngestRequest
	if json.Unmarshal(body, &req) == nil {
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := jsonwire.DecodeIngest(enc); !ok {
			t.Fatalf("DecodeIngest rejects encoding/json output %q", enc)
		}
		checkDecoders(t, enc)
	}
	var line ingestLine
	if json.Unmarshal(body, &line) == nil && line.Ys != nil && !hasNil(line.Ys) {
		enc, err := json.Marshal(line)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := jsonwire.DecodeRows(enc, "ys"); !ok {
			t.Fatalf("DecodeRows rejects encoding/json output %q", enc)
		}
	}
}

func hasNil(rows [][]float64) bool {
	for _, r := range rows {
		if r == nil {
			return true
		}
	}
	return false
}

// goldenFloats extracts every number of the serve goldens: real estimator
// output, the values the wire carries.
func goldenFloats(tb testing.TB) []float64 {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "serve", "testdata", "*.golden"))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no serve goldens: %v", err)
	}
	num := regexp.MustCompile(`-?\d+(\.\d+)?([eE][+-]?\d+)?`)
	var out []float64
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		for _, m := range num.FindAll(raw, -1) {
			if f, err := strconv.ParseFloat(string(m), 64); err == nil {
				out = append(out, f)
			}
		}
	}
	return out
}

// goldenBodies returns the serve goldens verbatim (non-canonical inputs)
// and canonical request bodies built from their floats.
func goldenBodies(tb testing.TB) [][]byte {
	tb.Helper()
	paths, _ := filepath.Glob(filepath.Join("..", "..", "serve", "testdata", "*.golden"))
	var out [][]byte
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, raw)
	}
	fs := goldenFloats(tb)
	row := func(i, n int) []float64 { return fs[i%len(fs) : i%len(fs)+min(n, len(fs)-i%len(fs))] }
	for _, v := range []any{
		serve.IngestRequest{Snapshots: []serve.SnapshotPayload{{Frac: row(0, 9), Probes: 100}, {Y: row(9, 9)}}},
		serve.IngestRequest{SnapshotPayload: serve.SnapshotPayload{Y: row(3, 12)}},
		serve.SnapshotPayload{Frac: row(5, 7), Probes: 1000},
		ingestLine{Ys: [][]float64{row(0, 5), row(5, 5), {}}},
		cluster.InferRequest{Y: row(7, 11)},
	} {
		raw, err := json.Marshal(v)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, raw)
		var ind bytes.Buffer
		_ = json.Indent(&ind, raw, "", "\t")
		out = append(out, ind.Bytes())
	}
	return out
}

// edgeBodies are inputs whose handling the fallback decides: each must be
// rejected by every fast path (or, where marked, accepted).
var edgeBodies = []struct {
	body   string
	ingest bool // DecodeIngest accepts it
}{
	{`{"snapshots":[{"frac":[0.9,1],"probes":100}]}`, true},
	{` {"y":[1, -0, 2.5e-7 ,1E3]} ` + "\n", true},
	{`{"y":[]}`, true},
	{`{"snapshots":[]}`, true},
	{`{}`, true},
	{`{"snapshots":[{}],"probes":-0}`, true},
	{`{"y":[1e-400]}`, true},
	{``, false},
	{`null`, false},
	{`[]`, false},
	{`{"Y":[1]}`, false},
	{`{"FRAC":[1]}`, false},
	{`{"y":null}`, false},
	{`{"snapshots":null}`, false},
	{`{"snapshots":[null]}`, false},
	{`{"y":[1],"y":[2]}`, false},
	{`{"snapshots":[{"y":[1],"y":[1]}]}`, false},
	{`{"y":[1e999]}`, false},
	{`{"y":[-1e400]}`, false},
	{`{"probes":1.5}`, false},
	{`{"probes":1e2}`, false},
	{`{"probes":99999999999999999999}`, false},
	{`{"y":[1]} x`, false},
	{`{"y":[1]}{"y":[2]}`, false},
	{`{"y":[1]`, false},
	{`{"y":[1,]}`, false},
	{`{"y":[,1]}`, false},
	{`{"y":[01]}`, false},
	{`{"y":[1.]}`, false},
	{`{"y":[.5]}`, false},
	{`{"y":[+1]}`, false},
	{`{"y":[1e]}`, false},
	{`{"y":[-]}`, false},
	{`{"y":["1"]}`, false},
	{`{"y":[1],}`, false},
	{`{"extra":1}`, false},
	{`{"snapshots":[{"snapshots":[]}]}`, false},
	{`{"y":[NaN]}`, false},
	{`{"y":[Infinity]}`, false},
	{`{"y":[0x10]}`, false},
	{`{"y":[1_0]}`, false},
	{"{\"y\":[1]}\x00", false},
}

func TestDecodeEdgeCases(t *testing.T) {
	for _, tc := range edgeBodies {
		if _, ok := jsonwire.DecodeIngest([]byte(tc.body)); ok != tc.ingest {
			t.Errorf("DecodeIngest(%q) ok=%v, want %v", tc.body, ok, tc.ingest)
		}
		checkDecoders(t, []byte(tc.body))
		checkCoverage(t, []byte(tc.body))
	}
	for _, body := range goldenBodies(t) {
		checkDecoders(t, body)
		checkCoverage(t, body)
	}
}

// TestDecodeShapes pins the values and nil-versus-empty results of the
// shapes the servers decode.
func TestDecodeShapes(t *testing.T) {
	in, ok := jsonwire.DecodeIngest([]byte(`{"snapshots":[{"frac":[0.5,1],"probes":7},{"y":[]}]}`))
	if !ok || len(in.Snapshots) != 2 || in.Y != nil || in.Frac != nil {
		t.Fatalf("batch: ok=%v %+v", ok, in)
	}
	if s := in.Snapshots[0]; !sameFloats(s.Frac, []float64{0.5, 1}) || s.Probes != 7 || s.Y != nil {
		t.Fatalf("batch snapshot 0: %+v", s)
	}
	if s := in.Snapshots[1]; s.Y == nil || len(s.Y) != 0 {
		t.Fatalf(`"y":[] must decode to an empty, non-nil slice: %#v`, s.Y)
	}
	rows, ok := jsonwire.DecodeRows([]byte(`{"ys":[[1,2],[3],[]]}`), "ys")
	if !ok || !sameRows(rows, [][]float64{{1, 2}, {3}, {}}) {
		t.Fatalf("rows: ok=%v %v", ok, rows)
	}
	// Rows share a backing array but are capped: appending to one never
	// writes into the next.
	_ = append(rows[0], 99)
	if rows[1][0] != 3 {
		t.Fatalf("append to row 0 overwrote row 1: %v", rows[1])
	}
	// Past the up-front size the flat array regrows; rows decoded before
	// that keep their values.
	big := make([][]float64, 3)
	for i := range big {
		big[i] = make([]float64, 30000)
		for p := range big[i] {
			big[i][p] = float64(i*30000+p) / 7
		}
	}
	raw, err := json.Marshal(ingestLine{Ys: big})
	if err != nil {
		t.Fatal(err)
	}
	if rows, ok := jsonwire.DecodeRows(raw, "ys"); !ok || !sameRows(rows, big) {
		t.Fatalf("rows past the presize: ok=%v", ok)
	}
	if _, ok := jsonwire.DecodeRows([]byte(`{"y":[[1]]}`), "ys"); ok {
		t.Fatal("DecodeRows accepted the wrong key")
	}
	if y, ok := jsonwire.DecodeFloats([]byte(`{"y":[1,2]}`), "y"); !ok || !sameFloats(y, []float64{1, 2}) {
		t.Fatalf("floats: ok=%v %v", ok, y)
	}
}

func TestAppendFloatMatchesJSON(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 1e-7, -1e-7, 9.99e-7, 1e20, 1e21, -1e21,
		1.5e300, 5e-324, math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64, 123456789.123,
		1e-10, 1.234e-100, 3.8677690007543866e-7, -0.00032211928913800786}
	vals = append(vals, goldenFloats(t)...)
	for _, v := range vals {
		want, err := json.Marshal([]float64{v})
		if err != nil {
			t.Fatal(err)
		}
		got, err := jsonwire.AppendFloats(nil, []float64{v})
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("AppendFloats(%v) = %q, %v; encoding/json %q", v, got, err, want)
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, want := json.Marshal(v)
		got, err := jsonwire.AppendFloats([]byte("x"), []float64{1, v})
		if err == nil || err.Error() != want.Error() || string(got) != "x" {
			t.Errorf("AppendFloats with %v = %q, %v; want dst unchanged and %v", v, got, err, want)
		}
		var uve *json.UnsupportedValueError
		if !errors.As(err, &uve) {
			t.Errorf("AppendFloats with %v: error %T, want *json.UnsupportedValueError", v, err)
		}
	}
	for _, rows := range [][][]float64{nil, {}, {nil}, {{}}, {{1, 2}, {3}}} {
		want, _ := json.Marshal(rows)
		got, err := jsonwire.AppendRows(nil, rows)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("AppendRows(%v) = %q, %v; encoding/json %q", rows, got, err, want)
		}
	}
}

func FuzzDecodeIngest(f *testing.F) {
	for _, tc := range edgeBodies {
		f.Add([]byte(tc.body))
	}
	for _, body := range goldenBodies(f) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecoders(t, body)
		checkCoverage(t, body)
	})
}

func FuzzAppendFloats(f *testing.F) {
	fs := goldenFloats(f)
	for i := 0; i < len(fs); i += 7 {
		f.Add(floatBytes(fs[i:min(i+7, len(fs))]))
	}
	f.Add(floatBytes([]float64{math.NaN()}))
	f.Add(floatBytes([]float64{1, math.Inf(-1)}))
	f.Add(floatBytes([]float64{1e-7, 1e21, 5e-324}))
	f.Fuzz(func(t *testing.T, raw []byte) {
		vals := make([]float64, len(raw)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		want, werr := json.Marshal(vals)
		got, err := jsonwire.AppendFloats(nil, vals)
		if werr != nil {
			if err == nil || err.Error() != werr.Error() {
				t.Fatalf("AppendFloats(%v) error %v, encoding/json %v", vals, err, werr)
			}
			return
		}
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("AppendFloats(%v) = %q, %v; encoding/json %q", vals, got, err, want)
		}
		// What the appender writes, the scanner reads back bitwise.
		back, ok := jsonwire.DecodeFloats(append(append([]byte(`{"y":`), got...), '}'), "y")
		if !ok || !sameFloats(back, vals) {
			t.Fatalf("DecodeFloats round trip of %q: ok=%v %v", got, ok, back)
		}
	})
}

func floatBytes(vals []float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

// TestFloatMatchesParseFloat holds the scanner's numbers to
// strconv.ParseFloat on the values received-fraction bodies carry and on
// the edges of float64's exact integers and powers of ten.
func TestFloatMatchesParseFloat(t *testing.T) {
	texts := []string{"0", "-0", "1", "-1", "0.5", "0.987", "-0.000", "4503599627370495", "4503599627370496",
		"9007199254740993", "0.1234567890123456", "1.0000000000000000000001", "123456789012345678",
		"0.0000000000000000000001", "0.00000000000000000000001", "-3.75e-3", "1E5"}
	for n := 0; n <= 1000; n++ {
		texts = append(texts, strconv.FormatFloat(float64(n)/1000, 'f', -1, 64))
	}
	for _, text := range texts {
		want, err := strconv.ParseFloat(text, 64)
		if err != nil {
			t.Fatal(err)
		}
		y, ok := jsonwire.DecodeFloats([]byte(`{"y":[`+text+`]}`), "y")
		if !ok || len(y) != 1 || math.Float64bits(y[0]) != math.Float64bits(want) {
			t.Errorf("%s: decoded %v (ok=%v), strconv.ParseFloat %v", text, y, ok, want)
		}
	}
}
