package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// synthMeasurement is a hand-built pass with enough open-loop samples for
// every reported percentile.
func synthMeasurement() *measurement {
	step := 10 * time.Millisecond
	d := &generator{openEnd: 300 * step}
	for i := 0; i < 300; i++ {
		due := time.Duration(i) * step
		d.ingest = append(d.ingest, record{due: due, start: due, end: due + time.Millisecond, val: 8 * (i + 1), ok: true, open: true})
		d.links = append(d.links, record{due: due, start: due + 2*time.Millisecond, end: due + 5*time.Millisecond, val: 8 * (i + 1), ok: true, open: true})
		d.infer = append(d.infer, record{due: due, start: due + 6*time.Millisecond, end: due + 9*time.Millisecond, ok: true, open: true})
	}
	d.attempted.Store(900)
	d.satRates = []float64{1000, 1200, 900}
	return &measurement{
		setup:  []float64{0.75, 0.25, 0.5},
		d:      d,
		heapMB: 3,
		acc:    accuracy{truth: 10, flagged: 9, hit: 8},
		tr:     newTracer(time.Now()),
		layers: &layerSampler{},
	}
}

func TestSynthEndToEnd(t *testing.T) {
	res, err := synthMeasurement().endToEnd()
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"setup_s":      0.5,
		"fresh_p50_ms": 5, // each batch is covered by the links read due with it
		"detect_rate":  0.8,
		"heap_live_mb": 3,
	} {
		if got := res.Metrics[name].Value; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	layers, _ := synthMeasurement().perLayer(spec{}, synthMeasurement())
	for name, want := range map[string]float64{
		"gen.ingest_p50_ms":      1,
		"gen.links_p50_ms":       5,
		"gen.infer_p50_ms":       9,
		"gen.ingest_snaps_per_s": 1000,
	} {
		if got := layers.Metrics[name].Value; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if res.Attempted != 900 || res.Failed != 0 || !res.Correct {
		t.Errorf("result header %+v", res)
	}
}

// The benchmark reports exactly the metrics BENCHMARK.json declares, with
// the declared units: the end-to-end set untraced, the per-layer set traced.
func TestResultsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	e2e, err := synthMeasurement().endToEnd()
	if err != nil {
		t.Fatal(err)
	}
	layers, _ := synthMeasurement().perLayer(spec{}, synthMeasurement())
	for _, c := range []struct {
		kind string
		got  map[string]metric
		want []struct{ Name, Unit string }
	}{
		{"end_to_end", e2e.Metrics, decl.EndToEnd},
		{"per_layer", layers.Metrics, decl.PerLayer},
	} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: reported %d metrics, BENCHMARK.json declares %d", c.kind, len(c.got), len(c.want))
		}
		for _, w := range c.want {
			m, ok := c.got[w.Name]
			if !ok {
				t.Errorf("%s: %s declared but not reported", c.kind, w.Name)
				continue
			}
			if m.Unit != w.Unit {
				t.Errorf("%s: %s reported in %q, declared %q", c.kind, w.Name, m.Unit, w.Unit)
			}
		}
	}
}
