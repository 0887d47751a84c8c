package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"lia"
	"lia/serve"
)

// A run builds the stack preSetups times before the timed window, the last
// build being the stack measured, and postSetups times after the checks.
// A set-up takes tens of milliseconds and the machine's speed drifts from
// second to second, so the builds are spread over the whole run, setupGap
// apart, and setup_s is their trimmed mean.
const (
	preSetups  = 8
	postSetups = 7
	setupGap   = 100 * time.Millisecond
)

// recoverReps is how many copies of the durable state directory a run
// recovers; recover_s is their median.
const recoverReps = 3

// measurement is everything one pass over a workload observed.
type measurement struct {
	setup   []float64 // seconds per stack build
	d       *generator
	heapMB  float64
	tr      *tracer
	start   time.Duration // timed window start on the run clock
	layers  *layerSampler
	acc     accuracy
	recover []float64 // seconds per recovery
	replay  int       // snapshots the recovered engine replayed
	checked int       // values the parity gate compared bitwise

	before, after lia.Stats
	durBefore     lia.DurabilityStats
	durAfter      lia.DurabilityStats
	missed        int64
	scatter       int64
}

// measure runs one pass: build the stack preSetups times, drive the timed
// window, then check the answers. Any parity failure is an error.
func measure(ctx context.Context, cfg config, s spec, in *inputs, b *bodies, window time.Duration, traced bool) (*measurement, error) {
	stateRoot := filepath.Join(cfg.out, fmt.Sprintf("state-%d", os.Getpid()))
	defer os.RemoveAll(stateRoot)
	m := &measurement{}
	base := time.Now()
	if traced {
		m.tr = newTracer(base)
	}
	warm := b.ingest[:s.window0()/s.batch]
	wc := newClient()
	defer wc.CloseIdleConnections()
	// setup builds one stack and records its set-up time.
	setup := func(r int, tr *tracer) (*system, error) {
		dir := filepath.Join(stateRoot, fmt.Sprintf("setup%d", r))
		t0 := time.Now()
		sys, err := startSystem(ctx, s, stackOpts{in: in, tr: tr, stateDir: dir, warm: warm, client: wc})
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		m.setup = append(m.setup, time.Since(t0).Seconds())
		return sys, nil
	}
	// discard stops a stack that is not measured and waits setupGap.
	discard := func(sys *system) error {
		if err := sys.stop(); err != nil {
			return fmt.Errorf("stop setup stack: %w", err)
		}
		wc.CloseIdleConnections()
		return sleepCtx(ctx, setupGap)
	}
	var sys *system
	for r := 0; r < preSetups; r++ {
		if sys != nil {
			if err := discard(sys); err != nil {
				return nil, err
			}
		}
		var err error
		if sys, err = setup(r, m.tr); err != nil {
			return nil, err
		}
	}
	defer sys.stop()

	rc := newClient()
	defer rc.CloseIdleConnections()
	d := &generator{sys: sys, s: s, b: b, base: base, tr: m.tr, wc: wc, rc: rc, next: len(warm)}
	for i := range warm {
		d.acked = append(d.acked, i)
	}
	m.d = d
	m.start = d.now()
	m.before = sys.raw.Stats()
	m.durBefore = durabilityStats(sys.raw)
	missedBefore := sys.missed()
	heap := startHeapSampler(25 * time.Millisecond)
	if traced {
		m.layers = startLayerSampler(sys, 10*time.Millisecond)
	}
	err := d.run(ctx, window)
	if m.layers != nil {
		m.layers.finish()
	}
	m.heapMB = heap.finish()
	if err != nil {
		return nil, fmt.Errorf("timed window: %w", err)
	}
	m.after = sys.raw.Stats()
	m.durAfter = durabilityStats(sys.raw)
	m.missed = sys.missed() - missedBefore
	if sys.rt != nil {
		m.scatter = sys.rt.scatter.Load()
	}
	if err := m.check(ctx, s, in, b, sys, stateRoot); err != nil {
		return nil, err
	}
	if err := discard(sys); err != nil {
		return nil, err
	}
	// The later builds run untraced, so their spans cannot mix with the
	// timed window's.
	for r := preSetups; r < preSetups+postSetups; r++ {
		post, err := setup(r, nil)
		if err != nil {
			return nil, err
		}
		if err := discard(post); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// window0 is the warm-up fill: one window, or 64 snapshots for cumulative
// moments.
func (s spec) window0() int {
	if s.window > 0 {
		return s.window
	}
	return 64
}

func durabilityStats(eng lia.Inferencer) lia.DurabilityStats {
	if d, ok := eng.(durabilityStatser); ok {
		return d.DurabilityStats()
	}
	return lia.DurabilityStats{}
}

// check is the run's correctness gate. It finishes the pool cycle (so the
// windowed state the accuracy check sees is the one just before the held-out
// block), then requires the served /v1/links variances and partition, and
// the served /v1/infer answers, to be bitwise-equal to an in-process
// reference fed the identical snapshot sequence; on the durable workload
// the recovered engine must match too. It then scores the paper's DR and
// FPR on the held-out block.
func (m *measurement) check(ctx context.Context, s spec, in *inputs, b *bodies, sys *system, stateRoot string) error {
	d := m.d
	for d.next%len(b.ingest) != 0 {
		idx := d.next % len(b.ingest)
		d.next++
		if _, err := postIngest(ctx, d.wc, sys.url, b.ingest[idx], nil); err != nil {
			return fmt.Errorf("align: %w", err)
		}
		d.acked = append(d.acked, idx)
	}
	if err := sys.synced(ctx); err != nil {
		return fmt.Errorf("sync: %w", err)
	}
	var links serve.LinksResponse
	if code, body, err := getLinks(ctx, d.rc, sys.url, &links); err != nil || code != 200 {
		return fmt.Errorf("final /v1/links: %d %v %.200s", code, err, body)
	}
	want := len(d.acked) * s.batch
	if links.Epoch != want || links.Snapshots != want {
		return fmt.Errorf("parity: served epoch %d over %d snapshots, want %d", links.Epoch, links.Snapshots, want)
	}

	ref, err := reference(s, sys.rm)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	ys := batchVectors(in, s.batch)
	for _, idx := range d.acked {
		if err := ref.IngestBatch(ys[idx]); err != nil {
			return fmt.Errorf("reference ingest: %w", err)
		}
	}
	st, err := ref.Steady(ctx)
	if err != nil {
		return fmt.Errorf("reference steady: %w", err)
	}
	if err := sameSteady(st, &links); err != nil {
		return fmt.Errorf("parity: /v1/links vs reference: %w", err)
	}
	m.checked += len(links.Links)

	rm := sys.rm
	members := make([][]int, rm.NumLinks())
	for k := range members {
		members[k] = rm.Members(k)
	}
	linkIndex := make(map[int]int, len(in.LinkIDs))
	for i, id := range in.LinkIDs {
		linkIndex[id] = i
	}
	tl := ref.Threshold()
	for t, body := range b.held {
		var got serve.InferResponse
		if err := postInfer(ctx, d.rc, sys.url, body, &got); err != nil {
			return fmt.Errorf("held-out infer %d: %w", t, err)
		}
		flags, res, err := ref.InferCongested(ctx, lia.LogRates(in.Held[t], probes))
		if err != nil {
			return fmt.Errorf("reference infer: %w", err)
		}
		if err := sameInfer(flags, res, &got); err != nil {
			return fmt.Errorf("parity: /v1/infer tick %d vs reference: %w", t, err)
		}
		m.checked += len(got.Links)
		m.acc.add(flags, members, in.HeldLoss[t], linkIndex, tl)
	}

	if s.durable {
		if err := m.recoverState(ctx, s, sys, stateRoot, st); err != nil {
			return err
		}
	}
	return nil
}

// batchVectors converts the pool into the observation vectors the server
// derives from the request bodies, grouped by batch.
func batchVectors(in *inputs, batch int) [][][]float64 {
	var out [][][]float64
	for i := 0; i+batch <= len(in.Pool); i += batch {
		var ys [][]float64
		for _, f := range in.Pool[i : i+batch] {
			ys = append(ys, lia.LogRates(f, probes))
		}
		out = append(out, ys)
	}
	return out
}

func sameSteady(want *lia.SteadyState, got *serve.LinksResponse) error {
	if len(got.Links) != len(want.Variances) {
		return fmt.Errorf("%d links, want %d", len(got.Links), len(want.Variances))
	}
	if got.Unresolved != 0 {
		return fmt.Errorf("%d unresolved links", got.Unresolved)
	}
	kept := make(map[int]bool, len(want.Kept))
	for _, k := range want.Kept {
		kept[k] = true
	}
	for k, l := range got.Links {
		if math.Float64bits(l.Variance) != math.Float64bits(want.Variances[k]) {
			return fmt.Errorf("link %d variance %v, want %v", k, l.Variance, want.Variances[k])
		}
		if l.Kept != kept[k] {
			return fmt.Errorf("link %d kept=%v, want %v", k, l.Kept, kept[k])
		}
	}
	return nil
}

func sameInfer(flags []bool, want *lia.Result, got *serve.InferResponse) error {
	if len(got.Links) != len(flags) {
		return fmt.Errorf("%d links, want %d", len(got.Links), len(flags))
	}
	for k, l := range got.Links {
		if math.Float64bits(l.LossRate) != math.Float64bits(want.LossRates[k]) || l.Congested != flags[k] {
			return fmt.Errorf("link %d loss %v congested=%v, want %v %v", k, l.LossRate, l.Congested, want.LossRates[k], flags[k])
		}
	}
	return nil
}

// recoverState times boot recovery of copies of the run's state directory
// and requires every recovered engine to serve the reference's variances.
func (m *measurement) recoverState(ctx context.Context, s spec, sys *system, stateRoot string, want *lia.SteadyState) error {
	src := filepath.Join(stateRoot, fmt.Sprintf("setup%d", preSetups-1))
	for r := 0; r < recoverReps; r++ {
		dst := filepath.Join(stateRoot, fmt.Sprintf("recover%d", r))
		if err := copyDir(src, dst); err != nil {
			return fmt.Errorf("copy state: %w", err)
		}
		t0 := time.Now()
		eng, err := lia.New(sys.rm, append(s.engineOptions(), lia.WithDurability(dst, s.durability()))...)
		if err != nil {
			return fmt.Errorf("recover: %w", err)
		}
		st, err := eng.Steady(ctx)
		elapsed := time.Since(t0)
		if err != nil {
			return fmt.Errorf("recovered steady: %w", err)
		}
		ds := durabilityStats(eng)
		if cerr := eng.(*lia.DurableEngine).Close(); cerr != nil {
			return fmt.Errorf("close recovered engine: %w", cerr)
		}
		if ds.RecoveredEpoch == 0 || ds.ReplayedSnapshots == 0 {
			return fmt.Errorf("state directory held checkpoint epoch %d and a %d-snapshot WAL tail; recovery needs both",
				ds.RecoveredEpoch, ds.ReplayedSnapshots)
		}
		if st.Epoch != want.Epoch || len(st.Variances) != len(want.Variances) {
			return fmt.Errorf("parity: recovered epoch %d, want %d", st.Epoch, want.Epoch)
		}
		for k, v := range st.Variances {
			if math.Float64bits(v) != math.Float64bits(want.Variances[k]) {
				return fmt.Errorf("parity: recovered link %d variance %v, want %v", k, v, want.Variances[k])
			}
		}
		m.checked += len(st.Variances)
		m.recover = append(m.recover, elapsed.Seconds())
		m.replay = ds.ReplayedSnapshots
	}
	return nil
}

// copyDir copies a directory tree of regular files.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
