package main

// The probes measure each layer from outside, through exported API only: an
// HTTP middleware around serve.Server and cluster.Node handlers, a
// lia.Inferencer decorator around the engine handed to serve, and a
// RoundTripper in the fleet's HTTP client. Untraced runs install none of
// them.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lia"
)

// traceHeader carries "<trace id>-<parent span id>" across HTTP hops.
const traceHeader = "X-Lia-Trace"

// span is one timed call at a layer boundary. Start and End are offsets on
// the tracer's monotonic clock; Due is the generator's schedule time for
// root spans.
type span struct {
	ID      uint64        `json:"id"`
	Parent  uint64        `json:"parent,omitempty"`
	Trace   uint64        `json:"trace"`
	Name    string        `json:"name"`
	Start   time.Duration `json:"start_ns"`
	End     time.Duration `json:"end_ns"`
	Due     time.Duration `json:"due_ns,omitempty"`
	ReqB    int64         `json:"req_bytes,omitempty"`
	RespB   int64         `json:"resp_bytes,omitempty"`
	Rebuild bool          `json:"rebuild,omitempty"`
	Snaps   int           `json:"snaps,omitempty"`
}

func (s span) interval() interval { return interval{s.Start, s.End} }

// spanRef identifies the span a context or header is inside of.
type spanRef struct{ trace, span uint64 }

type ctxKey struct{}

func withSpan(ctx context.Context, ref spanRef) context.Context {
	return context.WithValue(ctx, ctxKey{}, ref)
}

func spanFrom(ctx context.Context) spanRef {
	ref, _ := ctx.Value(ctxKey{}).(spanRef)
	return ref
}

func formatRef(ref spanRef) string {
	return strconv.FormatUint(ref.trace, 10) + "-" + strconv.FormatUint(ref.span, 10)
}

func parseRef(h string) spanRef {
	t, s, ok := strings.Cut(h, "-")
	if !ok {
		return spanRef{}
	}
	trace, err1 := strconv.ParseUint(t, 10, 64)
	parent, err2 := strconv.ParseUint(s, 10, 64)
	if err1 != nil || err2 != nil {
		return spanRef{}
	}
	return spanRef{trace, parent}
}

// tracer keeps every span in memory until the run writes them out.
type tracer struct {
	base time.Time
	ids  atomic.Uint64

	// writer is the in-flight ingest request. IngestBatch takes no
	// context, so its span is attributed to the single writer's request.
	writer atomic.Pointer[spanRef]

	mu    sync.Mutex
	spans []span
}

func newTracer(base time.Time) *tracer { return &tracer{base: base} }

func (t *tracer) now() time.Duration { return time.Since(t.base) }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes the spans as JSON lines.
func (t *tracer) writeSpans(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// serveRoutes and nodeRoutes name the traced request/response routes.
// Streams (node ingest and watch) stay untraced: their single span would
// last the whole run.
var (
	serveRoutes = map[string]string{
		"/v1/snapshots": "serve.ingest",
		"/v1/links":     "serve.links",
		"/v1/infer":     "serve.infer",
	}
	nodeRoutes = map[string]string{
		"/cluster/v1/infer":  "cluster.node.infer",
		"/cluster/v1/steady": "cluster.node.steady",
	}
	hopRoutes = map[string]string{
		"/cluster/v1/infer":  "cluster.hop.infer",
		"/cluster/v1/steady": "cluster.hop.steady",
	}
)

// middleware records a span around every request of a traced route,
// continuing the trace named in traceHeader and counting request and
// response bytes.
func (t *tracer) middleware(routes map[string]string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name, ok := routes[r.URL.Path]
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		parent := parseRef(r.Header.Get(traceHeader))
		ref := spanRef{trace: parent.trace, span: t.newID()}
		body := &countingReader{r: r.Body}
		r.Body = body
		cw := &countingWriter{ResponseWriter: w}
		if name == "serve.ingest" {
			t.writer.Store(&ref)
		}
		start := t.now()
		next.ServeHTTP(cw, r.WithContext(withSpan(r.Context(), ref)))
		t.record(span{ID: ref.span, Parent: parent.span, Trace: ref.trace, Name: name,
			Start: start, End: t.now(), ReqB: body.n, RespB: cw.n})
	})
}

type countingReader struct {
	r io.ReadCloser
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) Close() error { return c.r.Close() }

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// transport is the fleet client's RoundTripper: it spans the gather hops,
// forwards the trace to the node, and counts the bytes written to the
// scatter streams.
type transport struct {
	t       *tracer
	next    http.RoundTripper
	scatter atomic.Int64
}

func (rt *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == "/cluster/v1/ingest" && req.Body != nil {
		req = req.Clone(req.Context())
		req.Body = &scatterBody{r: req.Body, n: &rt.scatter}
		return rt.next.RoundTrip(req)
	}
	name, ok := hopRoutes[req.URL.Path]
	if !ok {
		return rt.next.RoundTrip(req)
	}
	parent := spanFrom(req.Context())
	ref := spanRef{trace: parent.trace, span: rt.t.newID()}
	req = req.Clone(req.Context())
	req.Header.Set(traceHeader, formatRef(ref))
	s := span{ID: ref.span, Parent: parent.span, Trace: ref.trace, Name: name, Start: rt.t.now()}
	resp, err := rt.next.RoundTrip(req)
	if err != nil {
		s.End = rt.t.now()
		rt.t.record(s)
		return nil, err
	}
	// The hop lasts until the caller has read the body.
	resp.Body = &hopBody{ReadCloser: resp.Body, done: func() {
		s.End = rt.t.now()
		rt.t.record(s)
	}}
	return resp, nil
}

type scatterBody struct {
	r io.ReadCloser
	n *atomic.Int64
}

func (b *scatterBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (b *scatterBody) Close() error { return b.r.Close() }

type hopBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *hopBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// tracedEngine decorates the engine serve drives, spanning the three calls
// the serve handlers make into it.
type tracedEngine struct {
	lia.Inferencer
	t *tracer
}

func (e *tracedEngine) IngestBatch(ys [][]float64) error {
	var parent spanRef
	if p := e.t.writer.Load(); p != nil {
		parent = *p
	}
	s := span{ID: e.t.newID(), Parent: parent.span, Trace: parent.trace, Name: "engine.ingest", Snaps: len(ys), Start: e.t.now()}
	err := e.Inferencer.IngestBatch(ys)
	s.End = e.t.now()
	e.t.record(s)
	return err
}

func (e *tracedEngine) Steady(ctx context.Context) (*lia.SteadyState, error) {
	parent := spanFrom(ctx)
	before := e.Inferencer.Stats().StateEpoch
	ref := spanRef{trace: parent.trace, span: e.t.newID()}
	s := span{ID: ref.span, Parent: parent.span, Trace: ref.trace, Name: "engine.steady", Start: e.t.now()}
	st, err := e.Inferencer.Steady(withSpan(ctx, ref))
	s.End = e.t.now()
	s.Rebuild = err == nil && st.Epoch > before
	e.t.record(s)
	return st, err
}

func (e *tracedEngine) InferCongested(ctx context.Context, y []float64) ([]bool, *lia.Result, error) {
	parent := spanFrom(ctx)
	ref := spanRef{trace: parent.trace, span: e.t.newID()}
	s := span{ID: ref.span, Parent: parent.span, Trace: ref.trace, Name: "engine.infer", Start: e.t.now()}
	c, res, err := e.Inferencer.InferCongested(withSpan(ctx, ref), y)
	s.End = e.t.now()
	e.t.record(s)
	return c, res, err
}

// The optional capabilities serve discovers by type assertion. The
// decorator must expose exactly the set its engine has, or serve would
// behave differently traced and untraced.
type (
	durabilityStatser interface{ DurabilityStats() lia.DurabilityStats }
	componentStatser  interface{ ComponentStats() []lia.Stats }
	clusterNoder      interface{ ClusterNodes() (total, live int) }
	clusterMisser     interface{ Missed() int64 }
	worldLagger       interface{ WorldLag() int }
)

type tracedDurable struct {
	*tracedEngine
	d durabilityStatser
}

func (e tracedDurable) DurabilityStats() lia.DurabilityStats { return e.d.DurabilityStats() }

type tracedSharded struct {
	*tracedEngine
	c componentStatser
}

func (e tracedSharded) ComponentStats() []lia.Stats { return e.c.ComponentStats() }

type fleetCaps interface {
	componentStatser
	clusterNoder
	clusterMisser
}

type tracedFleet struct {
	*tracedEngine
	f fleetCaps
}

func (e tracedFleet) ComponentStats() []lia.Stats     { return e.f.ComponentStats() }
func (e tracedFleet) ClusterNodes() (total, live int) { return e.f.ClusterNodes() }
func (e tracedFleet) Missed() int64                   { return e.f.Missed() }

// Capability bits of an engine, as serve sees them.
const (
	capDurability = 1 << iota
	capComponents
	capNodes
	capMissed
	capWorldLag
)

func capabilities(eng lia.Inferencer) int {
	var c int
	if _, ok := eng.(durabilityStatser); ok {
		c |= capDurability
	}
	if _, ok := eng.(componentStatser); ok {
		c |= capComponents
	}
	if _, ok := eng.(clusterNoder); ok {
		c |= capNodes
	}
	if _, ok := eng.(clusterMisser); ok {
		c |= capMissed
	}
	if _, ok := eng.(worldLagger); ok {
		c |= capWorldLag
	}
	return c
}

// traceEngine wraps eng in the decorator whose method set matches eng's
// optional capabilities, and refuses a capability set it cannot forward.
func traceEngine(eng lia.Inferencer, t *tracer) (lia.Inferencer, error) {
	base := &tracedEngine{Inferencer: eng, t: t}
	var out lia.Inferencer
	switch c := capabilities(eng); c {
	case 0:
		out = base
	case capDurability:
		out = tracedDurable{base, eng.(durabilityStatser)}
	case capComponents:
		out = tracedSharded{base, eng.(componentStatser)}
	case capComponents | capNodes | capMissed:
		out = tracedFleet{base, eng.(fleetCaps)}
	default:
		return nil, fmt.Errorf("engine %T has capability set %#x the trace decorator does not forward", eng, c)
	}
	if got, want := capabilities(out), capabilities(eng); got != want {
		return nil, fmt.Errorf("decorator for %T exposes capabilities %#x, engine has %#x", eng, got, want)
	}
	return out, nil
}
