package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"lia"
	"lia/cluster"
)

func tinyMatrix(t *testing.T, domains int) *lia.RoutingMatrix {
	t.Helper()
	paths, err := buildPaths(spec{domains: domains, perTree: 6, treeSize: 30, branch: 3}, 7)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := lia.NewTopology(paths)
	if err != nil {
		t.Fatal(err)
	}
	return rm
}

// The decorator must present serve with exactly the optional capabilities
// of the engine it wraps, or serve would behave differently traced.
func TestTraceEngineForwardsCapabilities(t *testing.T) {
	one, multi := tinyMatrix(t, 1), tinyMatrix(t, 3)
	plain, err := lia.New(one)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := lia.New(multi)
	if err != nil {
		t.Fatal(err)
	}
	durable, err := lia.New(multi, lia.WithDurability(t.TempDir(), lia.DurabilityOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	defer durable.(*lia.DurableEngine).Close()
	fleet, err := cluster.NewFleet(multi, cluster.FleetConfig{Size: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	tr := newTracer(time.Now())
	for _, c := range []struct {
		eng  lia.Inferencer
		want int
	}{
		{plain, 0},
		{sharded, capComponents},
		{durable, capDurability},
		{fleet, capComponents | capNodes | capMissed},
	} {
		if got := capabilities(c.eng); got != c.want {
			t.Errorf("%T has capabilities %#x, want %#x", c.eng, got, c.want)
		}
		wrapped, err := traceEngine(c.eng, tr)
		if err != nil {
			t.Fatalf("%T: %v", c.eng, err)
		}
		if got := capabilities(wrapped); got != c.want {
			t.Errorf("traced %T exposes %#x, want %#x", c.eng, got, c.want)
		}
	}
}

// A traced request yields a span tree whose parent links run from the
// generator through serve into the engine.
func TestMiddlewareAndDecoratorLinkSpans(t *testing.T) {
	rm := tinyMatrix(t, 1)
	eng, err := lia.New(rm)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(time.Now())
	traced, err := traceEngine(eng, tr)
	if err != nil {
		t.Fatal(err)
	}
	y := make([]float64, rm.NumPaths())
	for i := 0; i < 4; i++ {
		for j := range y {
			y[j] = -0.001 * float64((i*7+j)%5)
		}
		if err := eng.Ingest(y); err != nil {
			t.Fatal(err)
		}
	}
	h := tr.middleware(serveRoutes, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := traced.Steady(r.Context()); err != nil {
			t.Error(err)
		}
		w.Write([]byte("{}"))
	}))
	req := httptest.NewRequest(http.MethodGet, "/v1/links", nil)
	req.Header.Set(traceHeader, formatRef(spanRef{trace: 42, span: 7}))
	h.ServeHTTP(httptest.NewRecorder(), req)

	spans := tr.snapshot()
	if len(spans) != 2 {
		t.Fatalf("%d spans, want serve and engine", len(spans))
	}
	eSpan, sSpan := spans[0], spans[1]
	if sSpan.Name != "serve.links" || sSpan.Parent != 7 || sSpan.Trace != 42 || sSpan.RespB != 2 {
		t.Errorf("serve span %+v", sSpan)
	}
	if eSpan.Name != "engine.steady" || eSpan.Parent != sSpan.ID || eSpan.Trace != 42 || !eSpan.Rebuild {
		t.Errorf("engine span %+v, want a rebuilding child of %d", eSpan, sSpan.ID)
	}
	if _, err := traced.Steady(context.Background()); err != nil {
		t.Fatal(err)
	}
	if last := tr.snapshot()[2]; last.Rebuild {
		t.Error("a cached Steady was marked as a rebuild")
	}
}
