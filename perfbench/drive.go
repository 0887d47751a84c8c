package main

import (
	"bytes"
	"context"
	"net/http"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// openShare is the part of the timed window run open-loop at the workload's
// fixed rates; the rest is the saturation phase, where the writer runs
// closed-loop while the reader keeps its rate.
const openShare = 0.5

// maxBacklog bounds how far the saturation writer may run ahead of the
// fleet's slowest component. Fleet ingest has no backpressure: a batch that
// finds a node's queue full is dropped, so an unbounded closed loop would
// measure drops, not throughput. The bound is well inside the default
// 1024-batch queue.
const maxBacklog = 2048

// record is one generator request. Times are offsets on the run clock;
// latency is end − due, so a stall counts against the requests queued
// behind it.
type record struct {
	due, start, end time.Duration
	val             int  // ingest: snapshot count after the batch; links: served epoch
	ok              bool // 2xx and parsed
	open            bool // sent in the open-loop phase
}

func (r record) latency() float64 { return ms(r.end - r.due) }

// generator is the load generator: one writer and one reader connection.
type generator struct {
	sys    *system
	s      spec
	b      *bodies
	base   time.Time
	tr     *tracer
	wc, rc *http.Client

	start   time.Duration // start of the timed window on the run clock
	openEnd time.Duration // end of the open-loop phase

	next  int   // next pool batch the writer sends
	acked []int // pool batch indices the server acknowledged, in order

	ingest, links, infer []record

	satRates []float64 // folded snapshots/s over each saturation bucket

	attempted, failed atomic.Int64
}

func (d *generator) now() time.Duration { return time.Since(d.base) }

// request sends one timed request. Traced runs stamp a fresh trace id and
// record the generator's root span.
func (d *generator) request(ctx context.Context, c *http.Client, name, method, path string, body []byte, due time.Duration, buf *bytes.Buffer) record {
	rec := record{due: due, start: d.now()}
	var ref *spanRef
	if d.tr != nil {
		ref = &spanRef{trace: d.tr.newID(), span: d.tr.newID()}
	}
	code, err := do(ctx, c, method, d.sys.url+path, body, ref, buf)
	rec.end = d.now()
	d.attempted.Add(1)
	rec.ok = err == nil && code >= 200 && code < 300
	if !rec.ok {
		d.failed.Add(1)
	}
	if ref != nil {
		d.tr.record(span{ID: ref.span, Trace: ref.trace, Name: name, Start: rec.start, End: rec.end, Due: due})
	}
	return rec
}

// sendBatch posts the next pool batch.
func (d *generator) sendBatch(ctx context.Context, due time.Duration, open bool, buf *bytes.Buffer) record {
	idx := d.next % len(d.b.ingest)
	d.next++
	rec := d.request(ctx, d.wc, "gen.ingest", http.MethodPost, "/v1/snapshots", d.b.ingest[idx], due, buf)
	rec.open = open
	if rec.ok {
		d.acked = append(d.acked, idx)
		n, err := jsonInt(buf.Bytes(), "snapshots")
		if err != nil {
			rec.ok = false
			d.failed.Add(1)
		}
		rec.val = n
	}
	return rec
}

// run drives the timed window: open loop at fixed rates, then saturation.
func (d *generator) run(ctx context.Context, window time.Duration) error {
	start := d.now()
	openEnd := start + time.Duration(openShare*float64(window))
	d.start, d.openEnd = start, openEnd
	satEnd := start + window
	var wg sync.WaitGroup
	wg.Add(2)
	var satErr error
	go func() {
		defer wg.Done()
		var buf bytes.Buffer
		interval := time.Duration(float64(time.Second) / d.s.batchesPerS())
		for i := 0; ; i++ {
			due := start + time.Duration(i)*interval
			if due >= openEnd {
				break
			}
			if wait := due - d.now(); wait > 0 {
				if sleepCtx(ctx, wait) != nil {
					return
				}
			}
			d.ingest = append(d.ingest, d.sendBatch(ctx, due, true, &buf))
		}
		// Saturation starts on the phase boundary, so every request due in
		// the open-loop phase was sent at its scheduled rate.
		if wait := openEnd - d.now(); wait > 0 && sleepCtx(ctx, wait) != nil {
			return
		}
		stop := make(chan struct{})
		rates := make(chan []float64)
		go func() { rates <- foldRates(d.sys, satBucket, stop) }()
		for d.now() < satEnd && ctx.Err() == nil {
			if d.sys.backlog() > maxBacklog {
				if sleepCtx(ctx, time.Millisecond) != nil {
					break
				}
				continue
			}
			d.ingest = append(d.ingest, d.sendBatch(ctx, d.now(), false, &buf))
		}
		close(stop)
		d.satRates = <-rates
		satErr = d.sys.synced(ctx)
	}()
	go func() {
		defer wg.Done()
		var buf bytes.Buffer
		for _, r := range readSchedule(d.s, start, satEnd) {
			if wait := r.due - d.now(); wait > 0 {
				if sleepCtx(ctx, wait) != nil {
					return
				}
			}
			open := r.due < openEnd
			if r.links {
				rec := d.request(ctx, d.rc, "gen.links", http.MethodGet, "/v1/links", nil, r.due, &buf)
				rec.open = open
				if rec.ok {
					n, err := jsonInt(buf.Bytes(), "epoch")
					rec.ok, rec.val = err == nil, n
				}
				d.links = append(d.links, rec)
				continue
			}
			body := d.b.infer[len(d.infer)%len(d.b.infer)]
			rec := d.request(ctx, d.rc, "gen.infer", http.MethodPost, "/v1/infer", body, r.due, &buf)
			rec.open = open
			d.infer = append(d.infer, rec)
		}
	}()
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	return satErr
}

// satBucket is the span of one throughput sample in the saturation phase.
const satBucket = 500 * time.Millisecond

// foldRates samples the system's folded snapshot count every bucket until
// stop is closed and returns the fold rate of each whole bucket. Scattered
// snapshots count once their slowest component has folded them.
func foldRates(sys *system, bucket time.Duration, stop <-chan struct{}) []float64 {
	t := time.NewTicker(bucket)
	defer t.Stop()
	last, at := sys.folded(), time.Now()
	var out []float64
	for {
		select {
		case <-stop:
			return out
		case now := <-t.C:
			n := sys.folded()
			out = append(out, float64(n-last)/now.Sub(at).Seconds())
			last, at = n, now
		}
	}
}

type read struct {
	due   time.Duration
	links bool
}

// readSchedule interleaves the links and infer reads at their fixed rates,
// offsetting the two streams by half a period.
func readSchedule(s spec, start, end time.Duration) []read {
	var out []read
	add := func(rate float64, links bool, phase float64) {
		if rate <= 0 {
			return
		}
		period := float64(time.Second) / rate
		for t := phase * period; start+time.Duration(t) < end; t += period {
			out = append(out, read{due: start + time.Duration(t), links: links})
		}
	}
	add(s.linksPerS, true, 0.25)
	add(s.inferPerS, false, 0.75)
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}

// freshness is, for each open-loop batch, the time from its due time to the
// end of the first /v1/links response whose epoch covers it. Batches no
// response covered are skipped.
func freshness(ingest, links []record) []timed {
	var served []record
	for _, l := range links {
		if l.ok {
			served = append(served, l)
		}
	}
	sort.Slice(served, func(i, j int) bool { return served[i].end < served[j].end })
	var out []timed
	for _, b := range ingest {
		if !b.open || !b.ok {
			continue
		}
		// The first response, in completion order, that covers the batch.
		for _, l := range served {
			if l.end >= b.start && l.val >= b.val {
				out = append(out, timed{b.due, ms(l.end - b.due)})
				break
			}
		}
	}
	return out
}

// heapSampler samples the live heap, as marked by the most recent garbage
// collection, until stopped. The live heap does not depend on when
// collections happen, unlike the allocated heap between them.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // MiB
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			metrics.Read(sample)
			h.samples = append(h.samples, float64(sample[0].Value.Uint64())/(1<<20))
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the median live heap in MiB. Its
// peak is an extreme of a few hundred samples and would move with how many
// request bodies happened to be in flight at a collection.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return median(h.samples)
}
