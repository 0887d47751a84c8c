package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
	}{
		{1000, 0.99, 990}, // rank 990 of 1..1000, ten samples beyond
		{1000, 0.50, 500},
		{200, 0.95, 190},
		{21, 0.50, 11},
		{2000, 0.99, 1980},
	} {
		got, err := percentile(seq(c.n), c.p)
		if err != nil {
			t.Fatalf("p%g of %d: %v", c.p*100, c.n, err)
		}
		if got != c.want {
			t.Errorf("p%g of %d = %v, want %v", c.p*100, c.n, got, c.want)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n int
		p float64
	}{
		{999, 0.99}, // nine beyond the p99 rank
		{199, 0.95},
		{19, 0.50},
		{0, 0.50},
	} {
		if v, err := percentile(seq(c.n), c.p); err == nil {
			t.Errorf("p%g of %d samples = %v, want an error", c.p*100, c.n, v)
		}
	}
	_, err := percentile(seq(999), 0.99)
	if err == nil || !strings.Contains(err.Error(), "9 beyond") {
		t.Errorf("error %v should name the 9 samples beyond", err)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median %v", got)
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
}

func iv(a, b int) interval {
	return interval{time.Duration(a) * time.Millisecond, time.Duration(b) * time.Millisecond}
}

func TestSelfTimeUnion(t *testing.T) {
	for _, c := range []struct {
		name     string
		parent   interval
		children []interval
		want     int
	}{
		{"no children", iv(0, 10), nil, 10},
		{"disjoint", iv(0, 10), []interval{iv(1, 3), iv(5, 8)}, 5},
		// Parallel hops overlap: their union counts once.
		{"overlapping", iv(0, 10), []interval{iv(2, 6), iv(4, 8)}, 4},
		{"nested", iv(0, 10), []interval{iv(2, 8), iv(3, 4)}, 4},
		// A child outliving its parent is clipped, never negative.
		{"clipped", iv(0, 10), []interval{iv(-5, 2), iv(9, 20)}, 7},
		{"covered", iv(0, 10), []interval{iv(0, 10), iv(0, 10)}, 0},
	} {
		if got := selfTime(c.parent, c.children); got != time.Duration(c.want)*time.Millisecond {
			t.Errorf("%s: self %v, want %dms", c.name, got, c.want)
		}
	}
}

func TestBreakdownAccountsForLatency(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Trace: 9, Name: "gen.infer", Due: ms(0), Start: ms(2), End: ms(20)},
		{ID: 2, Parent: 1, Trace: 9, Name: "serve.infer", Start: ms(3), End: ms(19)},
		{ID: 3, Parent: 2, Trace: 9, Name: "engine.infer", Start: ms(4), End: ms(18)},
		{ID: 4, Parent: 3, Trace: 9, Name: "cluster.hop.infer", Start: ms(5), End: ms(12)},
		{ID: 5, Parent: 3, Trace: 9, Name: "cluster.hop.infer", Start: ms(6), End: ms(15)},
		{ID: 6, Parent: 4, Trace: 9, Name: "cluster.node.infer", Start: ms(7), End: ms(10)},
		{ID: 7, Parent: 5, Trace: 9, Name: "cluster.node.infer", Start: ms(8), End: ms(11)},
	}
	a := analyze(spans, 0)
	got := a.breakdown(spans[0])
	// The hops overlap, so only the one that finished last (5, at 15 ms)
	// is followed: its 9 ms minus its node's 3.
	want := map[string]float64{
		"queue":        2,
		"client+http":  2, // 18 minus the 16 the serve span covers
		"serve":        2,
		"engine":       4, // 14 minus the union 5..15 of the hops
		"cluster.hop":  6,
		"cluster.node": 3,
	}
	var sum float64
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: %v ms, want %v", k, got[k], v)
		}
		sum += got[k]
	}
	// 1 ms of the 20 stays unattributed: the faster hop started first.
	if sum != 19 {
		t.Errorf("layers sum to %v ms of the 20 ms latency, want 19", sum)
	}
}

func TestCriticalPathFollowsSerialChildren(t *testing.T) {
	serial := []span{{ID: 1, Start: 0, End: 2}, {ID: 2, Start: 2, End: 5}}
	if got := criticalPath(serial); len(got) != 2 {
		t.Errorf("serial children: followed %d, want both", len(got))
	}
	parallel := []span{{ID: 1, Start: 0, End: 9}, {ID: 2, Start: 1, End: 7}}
	if got := criticalPath(parallel); len(got) != 1 || got[0].ID != 1 {
		t.Errorf("parallel children: followed %+v, want the one ending last", got)
	}
}

func TestTrimmedMeanSmoothsTwoModes(t *testing.T) {
	// 15 set-ups, three of which skipped a 100 ms reconnect.
	xs := []float64{0.05, 0.05, 0.05}
	for i := 0; i < 12; i++ {
		xs = append(xs, 0.15)
	}
	if got := trimmedMean(xs, 0.2); math.Abs(got-0.15) > 1e-12 {
		t.Errorf("trimmed mean %v, want 0.15", got)
	}
	// Seven fast ones: the median jumps to the fast mode, the trimmed mean
	// moves only part of the way.
	for i := 3; i < 7; i++ {
		xs[i] = 0.05
	}
	if med := median(xs); med != 0.15 {
		t.Fatalf("median %v", med)
	}
	xs[7] = 0.05
	if med := median(xs); med != 0.05 {
		t.Fatalf("median %v", med)
	}
	if got := trimmedMean(xs, 0.2); got < 0.09 || got > 0.1 {
		t.Errorf("trimmed mean %v, want between the modes", got)
	}
}

func TestAnalyzeSkipsSetupSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "serve.links", Start: 5, End: 10},
		{ID: 2, Name: "serve.links", Start: 50, End: 60},
	}
	a := analyze(spans, 20)
	if n := len(a.byName["serve.links"]); n != 1 {
		t.Fatalf("%d spans kept, want the one in the timed window", n)
	}
}

func TestFreshnessFirstCoveringResponse(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	ingest := []record{
		{due: ms(0), start: ms(0), end: ms(2), val: 8, ok: true, open: true},
		{due: ms(10), start: ms(11), end: ms(13), val: 16, ok: true, open: true},
		{due: ms(20), start: ms(20), end: ms(22), val: 24, ok: true, open: false}, // saturation
		{due: ms(30), start: ms(30), end: ms(40), val: 0, ok: false, open: true},
	}
	links := []record{
		{end: ms(5), val: 8, ok: true},
		{end: ms(9), val: 8, ok: true},
		{end: ms(12), val: 0, ok: false},
		{end: ms(25), val: 24, ok: true},
	}
	got := values(freshness(ingest, links))
	want := []float64{5, 15}
	if len(got) != len(want) {
		t.Fatalf("freshness %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("batch %d fresh after %v ms, want %v", i, got[i], want[i])
		}
	}
}

func TestReadScheduleRates(t *testing.T) {
	s := spec{linksPerS: 10, inferPerS: 30}
	reads := readSchedule(s, 0, 2*time.Second)
	var links, infer int
	for i, r := range reads {
		if i > 0 && r.due < reads[i-1].due {
			t.Fatal("schedule not sorted")
		}
		if r.links {
			links++
		} else {
			infer++
		}
	}
	if links != 20 || infer != 60 {
		t.Errorf("%d links and %d infer reads in 2s, want 20 and 60", links, infer)
	}
}

func TestJSONInt(t *testing.T) {
	body := []byte(`{"topology":"default","epoch":1234,"snapshots":-1,"links":[{"epoch":9}]}`)
	if n, err := jsonInt(body, "epoch"); err != nil || n != 1234 {
		t.Errorf("epoch %d %v", n, err)
	}
	if n, err := jsonInt(body, "snapshots"); err != nil || n != -1 {
		t.Errorf("snapshots %d %v", n, err)
	}
	if _, err := jsonInt(body, "missing"); err == nil {
		t.Error("missing key parsed")
	}
}

func TestChunkedMedianResistsAShortSlowdown(t *testing.T) {
	// 21 s of samples make five intervals of 4.2 s, 84 samples each. A
	// slowdown over the second and third intervals slows 40% of the
	// samples: enough to move the pooled median, not the median of the
	// interval medians.
	var xs []timed
	for i := 0; i < 420; i++ {
		due := time.Duration(i) * 50 * time.Millisecond
		v := 1 + float64(i%10)/100
		if i >= 84 && i < 252 {
			v = 3
		}
		xs = append(xs, timed{due, v})
	}
	got, err := chunkedMedian(xs, 0, 21*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got > 1.05 {
		t.Errorf("median of interval medians %v, want the undisturbed 1.04", got)
	}
	if pooled := median(values(xs)); pooled < 1.07 {
		t.Errorf("pooled median %v: the slowdown should have moved it", pooled)
	}
	// Too few samples an interval to support a median is an error.
	if _, err := chunkedMedian(xs[:200], 0, 21*time.Second); err == nil {
		t.Error("median of sparse intervals accepted")
	}
}
