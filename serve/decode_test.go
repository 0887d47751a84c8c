package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// malformedBodies are request bodies outside the canonical shapes; their
// decode must behave exactly as a streaming encoding/json decode.
var malformedBodies = []string{
	``,
	` `,
	`null`,
	`[]`,
	`"y"`,
	`{`,
	`{"y":[1,2]`,
	`{"y":[1,,2]}`,
	`{"y":[1e999]}`,
	`{"y":["1"]}`,
	`{"y":null,"frac":[0.5]}`,
	`{"Y":[0.25],"Probes":10}`,
	`{"frac":[0.5],"frac":[0.9]}`,
	`{"snapshots":[{"frac":[0.5]},null]}`,
	`{"snapshots":{"frac":[0.5]}}`,
	`{"probes":2.5,"frac":[1]}`,
	`{"probes":1e3,"frac":[1]}`,
	`{"probes":"7","frac":[1]}`,
	`{"frac":[0.5]} trailing`,
	`{"frac":[0.5]}{"frac":[0.7]}`,
	`{"unknown":{"a":[1,{"b":null}]},"y":[1]}`,
	`{"y":[1],}`,
	"{\"y\":[1]}\x00",
}

// TestDecodeMatchesStreamingDecoder holds the handlers' decode to what the
// handlers did before the fast path, json.NewDecoder(r.Body).Decode: the
// same values for every body, canonical or not, and the same error text.
func TestDecodeMatchesStreamingDecoder(t *testing.T) {
	bodies := append([]string{
		`{"snapshots":[{"frac":[0.9,1],"probes":100},{"y":[-0.1,0]}]}`,
		`{"y":[-0.105,1e-7,0]}`,
		`{"frac":[0.5,0.25],"probes":20}`,
		`{"snapshots":[]}`,
		`{}`,
	}, malformedBodies...)
	for _, body := range bodies {
		var wantIngest IngestRequest
		wantErr := json.NewDecoder(strings.NewReader(body)).Decode(&wantIngest)
		gotIngest, gotErr := decodeIngest(httptest.NewRequest(http.MethodPost, "/v1/snapshots", strings.NewReader(body)))
		if !sameErr(gotErr, wantErr) || (wantErr == nil && !reflect.DeepEqual(gotIngest, wantIngest)) {
			t.Errorf("decodeIngest(%q) = %+v, %v; streaming decode %+v, %v", body, gotIngest, gotErr, wantIngest, wantErr)
		}
		var wantSnap SnapshotPayload
		wantErr = json.NewDecoder(strings.NewReader(body)).Decode(&wantSnap)
		gotSnap, gotErr := decodeSnapshot(httptest.NewRequest(http.MethodPost, "/v1/infer", strings.NewReader(body)))
		if !sameErr(gotErr, wantErr) || (wantErr == nil && !reflect.DeepEqual(gotSnap, wantSnap)) {
			t.Errorf("decodeSnapshot(%q) = %+v, %v; streaming decode %+v, %v", body, gotSnap, gotErr, wantSnap, wantErr)
		}
	}
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// benchIngestBody is a perfbench-shaped POST /v1/snapshots body: 8
// snapshots of received fractions over 600 paths.
func benchIngestBody(tb testing.TB) []byte {
	rng := rand.New(rand.NewPCG(8, 600))
	req := IngestRequest{Snapshots: make([]SnapshotPayload, 8)}
	for i := range req.Snapshots {
		frac := make([]float64, 600)
		for p := range frac {
			frac[p] = math.Round((1-0.05*rng.Float64())*1000) / 1000
			if p%7 == 0 {
				frac[p] = 1 - 0.05*rng.Float64()
			}
		}
		req.Snapshots[i] = SnapshotPayload{Frac: frac, Probes: 1000}
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// BenchmarkIngestDecode is the decode layer of POST /v1/snapshots on an
// 8x600 body: read the body, decode it to the request.
func BenchmarkIngestDecode(b *testing.B) {
	body := benchIngestBody(b)
	r := httptest.NewRequest(http.MethodPost, "/v1/snapshots", nil)
	rd := bytes.NewReader(body)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		r.Body, r.ContentLength = noCloser{rd}, int64(len(body))
		req, err := decodeIngest(r)
		if err != nil || len(req.Snapshots) != 8 {
			b.Fatalf("decode: %d snapshots, %v", len(req.Snapshots), err)
		}
	}
}

type noCloser struct{ *bytes.Reader }

func (noCloser) Close() error { return nil }
