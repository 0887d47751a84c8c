package cluster

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"testing"
)

// wireRows returns n rows of np log-rate-like values, with the magnitudes
// that switch encoding/json between its 'f' and 'e' forms mixed in.
func wireRows(n, np int, seed uint64) [][]float64 {
	rng := rand.New(rand.NewPCG(seed, 3))
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, np)
		for p := range rows[i] {
			rows[i][p] = math.Log(1 - 0.05*rng.Float64())
		}
	}
	if n > 0 && np > 3 {
		rows[0][0], rows[0][1], rows[0][2], rows[0][3] = 0, math.Copysign(0, -1), -3e-7, 2e21
	}
	return rows
}

// TestIngestLineMatchesEncoder pins the fleet's stream records to
// json.Encoder's bytes and the node's decode to encoding/json's values.
func TestIngestLineMatchesEncoder(t *testing.T) {
	for _, rows := range [][][]float64{nil, {}, {{}}, wireRows(1, 5, 1), wireRows(8, 300, 2)} {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(ingestLine{Ys: rows}); err != nil {
			t.Fatal(err)
		}
		got, err := appendIngestLine([]byte("prefix"), rows)
		if err != nil || !bytes.Equal(got, append([]byte("prefix"), want.Bytes()...)) {
			t.Fatalf("appendIngestLine = %q, %v; json.Encoder %q", got, err, want.Bytes())
		}
		ys, err := decodeIngestLine(bytes.TrimSuffix(want.Bytes(), []byte("\n")))
		if err != nil {
			t.Fatal(err)
		}
		var ref ingestLine
		if err := json.Unmarshal(want.Bytes(), &ref); err != nil {
			t.Fatal(err)
		}
		if len(ys) != len(ref.Ys) || (ys == nil) != (ref.Ys == nil) {
			t.Fatalf("decodeIngestLine: %d rows (nil=%v), encoding/json %d (nil=%v)", len(ys), ys == nil, len(ref.Ys), ref.Ys == nil)
		}
		for i := range ys {
			for p := range ys[i] {
				if math.Float64bits(ys[i][p]) != math.Float64bits(ref.Ys[i][p]) {
					t.Fatalf("row %d path %d: %v, encoding/json %v", i, p, ys[i][p], ref.Ys[i][p])
				}
			}
		}
	}
	y := wireRows(1, 40, 4)[0]
	want, err := json.Marshal(InferRequest{Y: y})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := appendInferRequest(nil, y); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("appendInferRequest = %q, %v; json.Marshal %q", got, err, want)
	}
	// Non-finite values fail exactly as json.Encoder fails, writing nothing.
	bad := [][]float64{{1, math.NaN()}}
	werr := json.NewEncoder(&bytes.Buffer{}).Encode(ingestLine{Ys: bad})
	if got, err := appendIngestLine([]byte("x"), bad); err == nil || err.Error() != werr.Error() || string(got) != "x" {
		t.Fatalf("appendIngestLine(NaN) = %q, %v; want dst unchanged and %v", got, err, werr)
	}
}

// BenchmarkNodeIngestLine is one fleet-to-node stream record of an 8-
// snapshot batch over a node's 300 paths (half of a 600-path topology on
// two nodes): the fleet's encode plus the node's decode.
func BenchmarkNodeIngestLine(b *testing.B) {
	rows := wireRows(8, 300, 5)
	line, err := appendIngestLine(nil, rows)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(line)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if line, err = appendIngestLine(line[:0], rows); err != nil {
			b.Fatal(err)
		}
		if _, err := decodeIngestLine(line[:len(line)-1]); err != nil {
			b.Fatal(err)
		}
	}
}
