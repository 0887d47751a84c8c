package main

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// latencies returns the open-loop latencies of recs in ms.
func latencies(recs []record) []float64 { return values(timedLatencies(recs)) }

// chunk is the shortest open-loop interval whose median enters a median
// of medians: long enough for 20 reads at the slowest read rate.
const chunk = 4 * time.Second

// chunkedMedian splits timed samples by due time into equal intervals of at
// least chunk over [start, end) and returns the median of the intervals'
// medians. A slowdown of the machine that lasts a few seconds moves a
// pooled median; it moves a median of interval medians only if it covers
// half the intervals.
func chunkedMedian(samples []timed, start, end time.Duration) (float64, error) {
	if end <= start {
		return 0, fmt.Errorf("empty interval [%v, %v)", start, end)
	}
	n := max(1, int((end-start)/chunk))
	width := (end - start) / time.Duration(n)
	byChunk := make([][]float64, n)
	for _, s := range samples {
		i := min(n-1, max(0, int((s.due-start)/width)))
		byChunk[i] = append(byChunk[i], s.v)
	}
	meds := make([]float64, n)
	for i, xs := range byChunk {
		v, err := percentile(xs, 0.50)
		if err != nil {
			return 0, fmt.Errorf("interval %d of %d: %w", i+1, n, err)
		}
		meds[i] = v
	}
	return median(meds), nil
}

// timed is one sample with the due time of the request it came from.
type timed struct {
	due time.Duration
	v   float64
}

// timedLatencies returns the open-loop latencies of recs in ms with their
// due times. A failed request counts as missing any limit: it is charged
// the request timeout.
func timedLatencies(recs []record) []timed {
	var out []timed
	for _, r := range recs {
		if !r.open {
			continue
		}
		v := r.latency()
		if !r.ok {
			v = ms(requestTimeout)
		}
		out = append(out, timed{r.due, v})
	}
	return out
}

func values(ts []timed) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = t.v
	}
	return out
}

// endToEnd assembles the untraced run's result: the metrics steady enough
// across runs on a 2-vCPU VM to gate. Request latencies and throughput
// moved 20-35% between identical runs there (the machine's speed swings by
// that much for seconds at a time); they are reported per layer, from the
// generator's side, without a bound.
func (m *measurement) endToEnd() (*result, error) {
	d := m.d
	fresh, err := chunkedMedian(freshness(d.ingest, d.links), d.start, d.openEnd)
	if err != nil {
		return nil, fmt.Errorf("fresh_p50_ms: %w", err)
	}
	dr, err := m.acc.detectRate()
	if err != nil {
		return nil, err
	}
	return &result{
		Correct:   true,
		Attempted: d.attempted.Load(),
		Failed:    d.failed.Load() + m.missed,
		Metrics: map[string]metric{
			"setup_s":      {trimmedMean(m.setup, 0.2), "s"},
			"fresh_p50_ms": {fresh, "ms"},
			"detect_rate":  {dr, "ratio"},
			"heap_live_mb": {m.heapMB, "MiB"},
		},
	}, nil
}

// generatorView is what the generator measured on the untraced pass p: the
// open-loop request medians (medians of interval medians) and tails, the
// freshness tail and the saturation throughput.
func generatorView(p *measurement, set func(name, unit string, v float64)) {
	d := p.d
	fresh := freshness(d.ingest, d.links)
	for _, q := range []struct {
		name string
		xs   []timed
	}{
		{"ingest", timedLatencies(d.ingest)},
		{"links", timedLatencies(d.links)},
		{"infer", timedLatencies(d.infer)},
	} {
		p50, err := chunkedMedian(q.xs, d.start, d.openEnd)
		if err != nil {
			p50 = median(values(q.xs))
		}
		set("gen."+q.name+"_p50_ms", "ms", p50)
		set("gen."+q.name+"_p90_ms", "ms", tail(values(q.xs), 0.90))
	}
	set("gen.fresh_p95_ms", "ms", tail(values(fresh), 0.95))
	set("gen.ingest_snaps_per_s", "1/s", median(d.satRates))
}

// layerSampler polls the engine's exported counters during a traced
// window: Stats, DurabilityStats and, on the fleet, per-component fold
// counts.
type layerSampler struct {
	sys  *system
	stop chan struct{}
	done chan struct{}

	epochLag    []float64
	lastRebuild []float64 // ms, once per observed rebuild
	dirtyComps  []float64 // per observed rebuild wave
	checkpoint  []float64 // ms, once per observed checkpoint
	walBytes    int64     // WAL growth summed over sampling intervals
	walSnaps    int       // snapshots ingested over the same intervals
	visibleLag  []float64 // fleet: accepted minus slowest component's folds
}

func startLayerSampler(sys *system, every time.Duration) *layerSampler {
	l := &layerSampler{sys: sys, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		t := time.NewTicker(every)
		defer t.Stop()
		prev := sys.raw.Stats()
		prevDur := durabilityStats(sys.raw)
		for {
			select {
			case <-l.stop:
				return
			case <-t.C:
			}
			st := sys.raw.Stats()
			l.epochLag = append(l.epochLag, float64(st.EpochLag))
			if st.Rebuilds != prev.Rebuilds {
				l.lastRebuild = append(l.lastRebuild, ms(st.LastRebuild))
				l.dirtyComps = append(l.dirtyComps, float64(st.DirtyComponents))
			}
			dur := durabilityStats(sys.raw)
			if !dur.LastCheckpointAt.Equal(prevDur.LastCheckpointAt) {
				l.checkpoint = append(l.checkpoint, ms(dur.LastCheckpoint))
			}
			if grow := dur.WALBytes - prevDur.WALBytes; grow > 0 {
				l.walBytes += grow
				l.walSnaps += st.Snapshots - prev.Snapshots
			}
			if sys.fleet != nil {
				lag := sys.fleet.Snapshots()
				for _, c := range sys.fleet.ComponentStats() {
					lag = min(lag, sys.fleet.Snapshots()-c.Snapshots)
				}
				l.visibleLag = append(l.visibleLag, float64(max(lag, 0)))
			}
			prev, prevDur = st, dur
		}
	}()
	return l
}

func (l *layerSampler) finish() {
	close(l.stop)
	<-l.done
}

// perLayer assembles the traced run's result, comparing against the
// untraced pass plain for the tracing overhead, and renders the per-layer
// table.
func (m *measurement) perLayer(s spec, plain *measurement) (*result, string) {
	spans := m.tr.snapshot()
	a := analyze(spans, m.start)
	l := m.layers
	d := m.d
	out := map[string]metric{}
	set := func(name, unit string, v float64) { out[name] = metric{v, unit} }

	ingestSnaps := 0
	for _, sp := range a.byName["engine.ingest"] {
		ingestSnaps += sp.Snaps
	}
	set("serve.ingest.self_ms", "ms", a.selfP50("serve.ingest"))
	set("serve.ingest.req_bytes_per_snap", "B", ratio(float64(a.sumReq("serve.ingest")), float64(ingestSnaps)))
	set("serve.links.self_ms", "ms", a.selfP50("serve.links"))
	set("serve.infer.self_ms", "ms", a.selfP50("serve.infer"))
	set("serve.links.resp_bytes", "B", a.respP50("serve.links"))
	set("serve.infer.resp_bytes", "B", a.respP50("serve.infer"))
	set("engine.ingest.p50_ms", "ms", a.durP50("engine.ingest", nil))
	rebuilt := func(sp span) bool { return sp.Rebuild }
	cached := func(sp span) bool { return !sp.Rebuild }
	set("engine.steady.rebuild_p50_ms", "ms", a.durP50("engine.steady", rebuilt))
	set("engine.steady.cached_p50_ms", "ms", a.durP50("engine.steady", cached))
	set("engine.last_rebuild_p50_ms", "ms", median(l.lastRebuild))
	set("engine.infer.p50_ms", "ms", a.durP50("engine.infer", nil))

	rebuilds := float64(m.after.Rebuilds - m.before.Rebuilds)
	set("engine.rebuilds", "count", rebuilds)
	set("engine.elim_reuse_ratio", "ratio", ratio(float64(m.after.ElimReuses-m.before.ElimReuses), rebuilds))
	set("engine.delta_ratio", "ratio", ratio(float64(m.after.DeltaRebuilds-m.before.DeltaRebuilds), rebuilds))
	set("engine.dirty_components_mean", "count", mean(l.dirtyComps))
	set("engine.skipped_components", "count", float64(m.after.SkippedComponents-m.before.SkippedComponents))
	set("engine.epoch_lag_p99", "count", tail(l.epochLag, 0.99))
	set("engine.rebuild_failures", "count", float64(m.after.RebuildFailures-m.before.RebuildFailures))

	set("durable.wal_bytes_per_snap", "B", ratio(float64(l.walBytes), float64(l.walSnaps)))
	set("durable.checkpoints", "count", float64(m.durAfter.Checkpoints-m.durBefore.Checkpoints))
	set("durable.checkpoint_p50_ms", "ms", median(l.checkpoint))
	set("durable.replayed_snapshots", "count", float64(m.replay))
	set("durable.recover_s", "s", median(m.recover))

	set("cluster.hop.infer_p50_ms", "ms", a.durP50("cluster.hop.infer", nil))
	set("cluster.node.infer_p50_ms", "ms", a.durP50("cluster.node.infer", nil))
	set("cluster.node.steady_p50_ms", "ms", a.durP50("cluster.node.steady", nil))
	gather := 0.0
	if s.fleet {
		gather = median(append(a.selves("engine.infer"), a.selves("engine.steady")...))
	}
	set("cluster.gather.self_ms", "ms", gather)
	set("cluster.scatter_bytes_per_snap", "B", ratio(float64(m.scatter), float64(m.after.Snapshots-m.before.Snapshots)))
	set("cluster.missed", "count", float64(m.missed))
	set("cluster.visible_lag_p99", "count", tail(l.visibleLag, 0.99))

	var lags []float64
	for _, recs := range [][]record{d.ingest, d.links, d.infer} {
		for _, r := range recs {
			if r.open {
				lags = append(lags, ms(r.start-r.due))
			}
		}
	}
	set("gen.lag_p99_ms", "ms", tail(lags, 0.99))
	set("trace.overhead_ingest_pct", "%", overhead(median(latencies(plain.d.ingest)), median(latencies(d.ingest))))
	set("trace.overhead_infer_pct", "%", overhead(median(latencies(plain.d.infer)), median(latencies(d.infer))))
	set("error_rate", "ratio", ratio(float64(d.failed.Load()+m.missed), float64(d.attempted.Load())))
	set("engine.false_pos_rate", "ratio", m.acc.falsePosRate())

	generatorView(plain, set)

	res := &result{Correct: true, Attempted: d.attempted.Load(), Failed: d.failed.Load() + m.missed, Metrics: out}
	return res, a.table(s, d)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func overhead(plain, traced float64) float64 {
	return ratio(traced-plain, plain) * 100
}

// tail is the p-quantile of xs, or its maximum when the sample is too
// small to support p (0 for none).
func tail(xs []float64, p float64) float64 {
	if v, err := percentile(xs, p); err == nil {
		return v
	}
	top := 0.0
	for _, x := range xs {
		top = max(top, x)
	}
	return top
}

// analysis indexes the spans of a traced window.
type analysis struct {
	byName   map[string][]span
	children map[uint64][]span
	byID     map[uint64]span
}

// analyze indexes the spans that started in the timed window or later.
func analyze(spans []span, from time.Duration) *analysis {
	a := &analysis{byName: map[string][]span{}, children: map[uint64][]span{}, byID: map[uint64]span{}}
	for _, sp := range spans {
		if sp.Start < from {
			continue
		}
		a.byName[sp.Name] = append(a.byName[sp.Name], sp)
		a.byID[sp.ID] = sp
		if sp.Parent != 0 {
			a.children[sp.Parent] = append(a.children[sp.Parent], sp)
		}
	}
	return a
}

// self is a span's self time: its duration minus the union of its
// children's.
func (a *analysis) self(sp span) time.Duration {
	var kids []interval
	for _, c := range a.children[sp.ID] {
		kids = append(kids, c.interval())
	}
	return selfTime(sp.interval(), kids)
}

func (a *analysis) selves(name string) []float64 {
	var out []float64
	for _, sp := range a.byName[name] {
		out = append(out, ms(a.self(sp)))
	}
	return out
}

func (a *analysis) selfP50(name string) float64 { return median(a.selves(name)) }

func (a *analysis) durP50(name string, keep func(span) bool) float64 {
	var xs []float64
	for _, sp := range a.byName[name] {
		if keep == nil || keep(sp) {
			xs = append(xs, ms(sp.End-sp.Start))
		}
	}
	return median(xs)
}

func (a *analysis) respP50(name string) float64 {
	var xs []float64
	for _, sp := range a.byName[name] {
		xs = append(xs, float64(sp.RespB))
	}
	return median(xs)
}

func (a *analysis) sumReq(name string) int64 {
	var n int64
	for _, sp := range a.byName[name] {
		n += sp.ReqB
	}
	return n
}

// layerOf maps a span name to its table column.
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "gen."):
		return "client+http"
	case strings.HasPrefix(name, "serve."):
		return "serve"
	case strings.HasPrefix(name, "engine."):
		return "engine"
	case strings.HasPrefix(name, "cluster.hop."):
		return "cluster.hop"
	case strings.HasPrefix(name, "cluster.node."):
		return "cluster.node"
	}
	return "other"
}

var tableLayers = []string{"queue", "client+http", "serve", "engine", "cluster.hop", "cluster.node"}

// breakdown splits one request's latency from its due time into the self
// time of every layer its trace crossed, plus the time it queued behind
// the generator's schedule.
func (a *analysis) breakdown(root span) map[string]float64 {
	parts := map[string]float64{"queue": ms(root.Start - root.Due)}
	var walk func(sp span)
	walk = func(sp span) {
		parts[layerOf(sp.Name)] += ms(a.self(sp))
		for _, c := range criticalPath(a.children[sp.ID]) {
			walk(c)
		}
	}
	walk(root)
	return parts
}

// criticalPath returns the children a parent waited for: all of them when
// they ran one after another, and only the one that finished last when
// they overlapped (the fleet's parallel hops), so the layers of a request
// add up to its latency instead of counting parallel branches twice.
func criticalPath(kids []span) []span {
	sorted := append([]span(nil), kids...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	last := 0
	overlap := false
	for i := range sorted {
		if i > 0 && sorted[i].Start < sorted[i-1].End {
			overlap = true
		}
		if sorted[i].End > sorted[last].End {
			last = i
		}
	}
	if !overlap {
		return sorted
	}
	return sorted[last : last+1]
}

// table renders the per-layer breakdown of the open-loop requests: the
// median of each layer's self time per request type, and the remainder of
// the end-to-end median the layer medians leave unattributed.
func (a *analysis) table(s spec, d *generator) string {
	var b strings.Builder
	fmt.Fprintf(&b, "per-layer self time, %s, open-loop requests, medians in ms\n", s.name)
	fmt.Fprintf(&b, "%-8s %7s %9s", "request", "n", "e2e_p50")
	for _, l := range tableLayers {
		fmt.Fprintf(&b, " %12s", l)
	}
	fmt.Fprintf(&b, " %12s\n", "unattributed")
	for _, kind := range []string{"ingest", "links", "infer"} {
		var totals []float64
		cols := map[string][]float64{}
		openEnd := d.openEnd
		for _, root := range a.byName["gen."+kind] {
			if root.Due >= openEnd {
				continue
			}
			totals = append(totals, ms(root.End-root.Due))
			parts := a.breakdown(root)
			for _, l := range tableLayers {
				cols[l] = append(cols[l], parts[l])
			}
		}
		e2e := median(totals)
		fmt.Fprintf(&b, "%-8s %7d %9.3f", kind, len(totals), e2e)
		rest := e2e
		for _, l := range tableLayers {
			v := median(cols[l])
			rest -= v
			fmt.Fprintf(&b, " %12.3f", v)
		}
		fmt.Fprintf(&b, " %12.3f\n", rest)
	}
	names := make([]string, 0, len(a.byName))
	for n := range a.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(&b, "spans: ")
	for _, n := range names {
		fmt.Fprintf(&b, "%s=%d ", n, len(a.byName[n]))
	}
	b.WriteString("\n")
	return b.String()
}
