package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lia"
)

// FleetConfig configures a coordinator-side Fleet.
type FleetConfig struct {
	// Size is the number of nodes the fleet waits for before placing
	// components. Required, >= 1.
	Size int
	// Options is the engine configuration propagated to every node, so the
	// fleet's per-component solvers match a single-process engine bitwise.
	Options EngineOptions
	// Client performs all coordinator->node HTTP; it must not set an
	// overall Timeout (the ingest and watch streams are long-lived).
	// Defaults to a plain http.Client.
	Client *http.Client
	// IngestBuffer bounds the per-node queue of scattered batches awaiting
	// the ingest stream; a full queue drops the batch for that node (its
	// components degrade, everyone else is unaffected). Default 1024.
	IngestBuffer int
	// ReconnectMin/ReconnectMax bound the supervision backoff for the
	// per-node ingest and watch streams (defaults 100ms / 5s).
	ReconnectMin, ReconnectMax time.Duration
	// Logf receives supervision logs (default discards).
	Logf func(format string, args ...any)
}

// nodeShare is the part of the topology one node carries: the wire-ready
// components it builds its engine from, the scatter map onto its path order
// and the gather map back from its link order.
type nodeShare struct {
	comps []ComponentAssignment // in scatter order
	paths []int                 // concatenated global path indices, in scatter order
	links []int                 // node virtual link -> global virtual link
}

// newNodeShare builds the share of one placement group. The link map comes
// from the same node matrix the node builds (nodeMatrix), so the node's
// answers gather back into global order link for link.
func newNodeShare(rm *lia.RoutingMatrix, part *lia.Partition, group []int) (*nodeShare, error) {
	sh := &nodeShare{}
	for _, c := range group {
		comp := part.Component(c)
		docs := make([]PathDoc, len(comp.Paths))
		for i, pg := range comp.Paths {
			p := rm.Path(pg)
			docs[i] = PathDoc{Beacon: p.Beacon, Dst: p.Dst, Links: p.Links}
		}
		sh.comps = append(sh.comps, ComponentAssignment{Component: c, Paths: docs})
		sh.paths = append(sh.paths, comp.Paths...)
	}
	nrm, err := nodeMatrix(sh.comps)
	if err != nil {
		return nil, err
	}
	sh.links = make([]int, nrm.NumLinks())
	for k := range sh.links {
		kg, ok := rm.VirtualOf(nrm.Members(k)[0])
		if !ok {
			return nil, fmt.Errorf("node link %d does not map back to the topology", k)
		}
		sh.links[k] = kg
	}
	return sh, nil
}

// nodeClient is the coordinator's handle on one registered node: its
// share of the topology, the scatter queue feeding its supervised ingest
// stream, and the cached state of its watch stream.
type nodeClient struct {
	id string
	// share is set once by Fleet.place under Fleet.mu (nil for a node that
	// carries no components) and never changes after; readers reach it
	// through a Fleet.mu-guarded view of the placement.
	share     *nodeShare
	ingesting sync.Once // starts the ingest supervisor after the first push

	mu  sync.Mutex
	url string

	// One incarnation per registration: the batch queue and the stream
	// context are replaced together when the node re-registers, so a stream
	// opened against the node's previous life can neither consume fresh
	// batches (it holds the abandoned channel) nor linger (its context is
	// cancelled).
	batches chan [][]float64 // node-local scattered batches
	sctx    context.Context  // cancelled when this incarnation ends
	scancel context.CancelFunc
	// base is the node's folded-snapshot count before this incarnation's
	// first delivery — the state it restored on (re)start — or -1 until the
	// first stream probe reads it. Deliveries count on top of it.
	base int64

	sent       atomic.Int64 // snapshots enqueued for this node
	missed     atomic.Int64 // snapshots dropped (queue full or stream broken)
	ingestLive atomic.Bool
	watchLive  atomic.Bool
	lastEvent  atomic.Pointer[NodeEvent]
}

func (nc *nodeClient) baseURL() string {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	return nc.url
}

// stream returns the node's current incarnation: the context its streams
// must bind to and the batch queue they drain.
func (nc *nodeClient) stream() (context.Context, chan [][]float64) {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	return nc.sctx, nc.batches
}

// reincarnate ends the node's current incarnation (severing its streams)
// and starts a fresh one. Callers must hold f.mu so no scatter races the
// channel swap; nc.mu is taken for readers that hold neither lock.
func (nc *nodeClient) reincarnate(parent context.Context, buffer int) {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	if nc.scancel != nil {
		nc.scancel()
	}
	nc.sctx, nc.scancel = context.WithCancel(parent)
	nc.batches = make(chan [][]float64, buffer)
	nc.base = -1
}

// setBase records the node's folded-snapshot count as read by the first
// stream probe of the incarnation sctx. Every delivery of an incarnation
// follows one of its probes on the single supervising goroutine, so the
// first probe sees exactly the state the node started this incarnation with.
// A probe of an ended incarnation is ignored.
func (nc *nodeClient) setBase(sctx context.Context, snapshots int) {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	if nc.sctx == sctx && nc.base < 0 {
		nc.base = int64(snapshots)
	}
}

// expected returns the folded-snapshot count the node owes once everything
// delivered so far has landed, and false while no stream probe has read the
// node's starting state yet.
func (nc *nodeClient) expected() (int64, bool) {
	nc.mu.Lock()
	base := nc.base
	nc.mu.Unlock()
	delivered := nc.sent.Load() - nc.missed.Load()
	if base < 0 {
		return delivered, delivered == 0
	}
	return base + delivered, true
}

// scatter projects a global observation vector onto the node's local path
// order (the concatenation of its components' rows).
func (sh *nodeShare) scatter(y []float64) []float64 {
	local := make([]float64, len(sh.paths))
	for i, pg := range sh.paths {
		local[i] = y[pg]
	}
	return local
}

// Fleet is the coordinator-side inference engine over a cluster of nodes:
// it implements lia.Inferencer — the same surface serve.Server drives for
// a single-process engine — by scattering ingested snapshots to the nodes
// owning each link-connected component and gathering their per-component
// results back into global link order. The Fleet owns placement and the
// per-node HTTP transport; the assembly itself is lia's gather core, the
// one ShardedEngine uses, applied to one part per node, so the degradation
// semantics are the same code (a dead node or a failing component marks
// only its own links Unresolved).
//
// Construct with NewFleet, expose Handler on the coordinator's listener so
// nodes can register, and Close when done. Until Size nodes have
// registered, ingest and queries fail with lia.ErrTooFewSnapshots — the
// same retryable cold-start signal a warming single-process engine gives.
type Fleet struct {
	rm     *lia.RoutingMatrix
	part   *lia.Partition
	shares []*nodeShare // per placement group: LPT shards of the partition
	cfg    FleetConfig

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu         sync.Mutex // guards nodes/placed/carriers/owners and serialises ingestion
	nodes      map[string]*nodeClient
	placed     bool
	assignment uint64
	carriers   []*nodeClient // nodes with a share, by ID; nil until placed
	owners     []*nodeClient // per component, nil until placed

	epoch atomic.Uint64 // fleet-lifetime ingested snapshots
}

// Fleet implements the engine surface serve.Server expects, plus the
// optional per-component and cluster introspection interfaces.
var _ lia.Inferencer = (*Fleet)(nil)

// NewFleet creates a coordinator fleet for the routing matrix. Placement
// happens when the Size'th node registers; until then the fleet reports
// cold-start errors.
func NewFleet(rm *lia.RoutingMatrix, cfg FleetConfig) (*Fleet, error) {
	if rm == nil {
		return nil, errors.New("cluster: nil routing matrix")
	}
	if cfg.Size < 1 {
		return nil, fmt.Errorf("cluster: fleet size %d must be >= 1", cfg.Size)
	}
	if _, err := cfg.Options.Options(); err != nil {
		return nil, err
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.IngestBuffer <= 0 {
		cfg.IngestBuffer = 1024
	}
	if cfg.ReconnectMin <= 0 {
		cfg.ReconnectMin = 100 * time.Millisecond
	}
	if cfg.ReconnectMax <= 0 {
		cfg.ReconnectMax = 5 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	part := lia.NewPartition(rm)
	f := &Fleet{
		rm:     rm,
		part:   part,
		cfg:    cfg,
		nodes:  make(map[string]*nodeClient),
		owners: make([]*nodeClient, part.NumComponents()),
	}
	// The placement groups depend only on the partition and the fleet size,
	// so every node's share is known before any node registers.
	for i, group := range part.Shards(cfg.Size) {
		sh, err := newNodeShare(rm, part, group)
		if err != nil {
			return nil, fmt.Errorf("cluster: placement group %d: %w", i, err)
		}
		f.shares = append(f.shares, sh)
	}
	f.ctx, f.cancel = context.WithCancel(context.Background())
	return f, nil
}

// Close stops the fleet's supervision streams and waits for them to exit.
func (f *Fleet) Close() error {
	f.cancel()
	f.wg.Wait()
	return nil
}

// Handler returns the coordinator's cluster-protocol handler (node
// registration); mount it alongside the serve API.
func (f *Fleet) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/v1/register", f.handleRegister)
	return mux
}

// handleRegister admits a node into the fleet. The Size'th distinct node
// triggers placement; a known node re-registering (a restart, possibly at a
// new address) has its assignment re-sent so it can rebuild its components
// and resume.
func (f *Fleet) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "", fmt.Errorf("decode registration: %w", err))
		return
	}
	if req.NodeID == "" || req.URL == "" {
		writeError(w, http.StatusBadRequest, "", errors.New("registration needs node_id and url"))
		return
	}
	f.mu.Lock()
	nc, known := f.nodes[req.NodeID]
	if !known {
		if f.placed || len(f.nodes) >= f.cfg.Size {
			defer f.mu.Unlock()
			writeError(w, http.StatusConflict, "", fmt.Errorf("fleet of %d is full; unknown node %q cannot join", f.cfg.Size, req.NodeID))
			return
		}
		nc = &nodeClient{id: req.NodeID}
		nc.reincarnate(f.ctx, f.cfg.IngestBuffer)
		f.nodes[req.NodeID] = nc
	}
	nc.mu.Lock()
	nc.url = req.URL
	nc.mu.Unlock()
	if known {
		// A re-registration is a restarted node: its learning state and its
		// folded-snapshot count begin again, so the delivery accounting does
		// too. Batches queued at — or streams opened against — its previous
		// life are abandoned with that incarnation (f.mu is held, so no
		// producer races the swap).
		nc.reincarnate(f.ctx, f.cfg.IngestBuffer)
		nc.sent.Store(0)
		nc.missed.Store(0)
	}
	complete := len(f.nodes) == f.cfg.Size
	place := complete && !f.placed
	var push []*nodeClient
	if place {
		f.place()
		// First placement: every node learns its assignment now.
		for _, other := range f.nodes {
			push = append(push, other)
		}
	} else if f.placed {
		// Rejoin of an already-placed fleet: re-push this node only.
		push = append(push, nc)
	}
	placed, nodes := f.placed, len(f.nodes)
	f.mu.Unlock()

	f.cfg.Logf("cluster: node %s registered at %s (%d/%d, placed=%v)", req.NodeID, req.URL, nodes, f.cfg.Size, placed)
	// Assignments go out in the background; a node may still be blocked in
	// this very registration call when its callback arrives.
	for _, target := range push {
		f.wg.Add(1)
		go f.pushAssignment(target)
	}
	writeJSON(w, http.StatusOK, RegisterResponse{NodeID: req.NodeID, Nodes: nodes, Size: f.cfg.Size, Placed: placed})
}

// place computes the component placement once the fleet is complete and
// starts the per-node supervision streams. Caller holds f.mu.
//
// Placement is deterministic and join-order independent: the LPT shard
// grouping of the partition (largest pair weight first, ties by component
// index) laid onto the node IDs in sorted order.
func (f *Fleet) place() {
	ids := make([]string, 0, len(f.nodes))
	for id := range f.nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	f.assignment++
	for i, id := range ids {
		nc := f.nodes[id]
		f.wg.Add(1)
		go f.superviseWatch(nc)
		if i >= len(f.shares) {
			f.cfg.Logf("cluster: node %s carries no components", id)
			continue
		}
		nc.share = f.shares[i]
		f.carriers = append(f.carriers, nc)
		for _, ca := range nc.share.comps {
			f.owners[ca.Component] = nc
		}
		f.cfg.Logf("cluster: placed %d components on node %s (%d paths)", len(nc.share.comps), id, len(nc.share.paths))
	}
	f.placed = true
}

// assignRequest builds the wire assignment for one node. Caller holds f.mu.
func (f *Fleet) assignRequest(nc *nodeClient) AssignRequest {
	req := AssignRequest{NodeID: nc.id, Assignment: f.assignment, Options: f.cfg.Options}
	if nc.share != nil {
		req.Components = nc.share.comps
	}
	return req
}

// pushAssignment delivers a node its assignment, retrying with backoff
// until it is acknowledged, rejected as stale (the node already runs it),
// or the fleet closes. The node's ingest stream opens only after the first
// push returns: its probe requires the node to run the assignment, so an
// earlier start merely races the push and loses a reconnect backoff.
func (f *Fleet) pushAssignment(nc *nodeClient) {
	defer f.wg.Done()
	f.mu.Lock()
	req := f.assignRequest(nc)
	f.mu.Unlock()
	body, _ := json.Marshal(req)
	backoff := f.cfg.ReconnectMin
	for {
		resp, err := postJSON(f.ctx, f.cfg.Client, nc.baseURL()+"/cluster/v1/assign", body)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			f.cfg.Logf("cluster: node %s accepted assignment %d (%d components)", nc.id, req.Assignment, len(req.Components))
			break
		}
		var er *wireError
		if errors.As(err, &er) && er.sentinel == nil {
			// Deliberate rejection (e.g. stale generation on a node that
			// already runs it): nothing to retry.
			f.cfg.Logf("cluster: node %s assignment %d not applied: %v", nc.id, req.Assignment, err)
			break
		}
		select {
		case <-f.ctx.Done():
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > f.cfg.ReconnectMax {
			backoff = f.cfg.ReconnectMax
		}
	}
	if len(req.Components) > 0 {
		nc.ingesting.Do(func() {
			f.wg.Add(1)
			go f.superviseIngest(nc)
		})
	}
}

// superviseWatch tails the node's epoch push stream, caching the latest
// NodeEvent for Stats and reconnecting with backoff when it drops.
func (f *Fleet) superviseWatch(nc *nodeClient) {
	defer f.wg.Done()
	backoff := f.cfg.ReconnectMin
	for {
		events, err := f.watchOnce(nc)
		nc.watchLive.Store(false)
		if f.ctx.Err() != nil {
			return
		}
		if events > 0 {
			backoff = f.cfg.ReconnectMin
		}
		f.cfg.Logf("cluster: node %s watch stream ended after %d events: %v (reconnect in %v)", nc.id, events, err, backoff)
		select {
		case <-f.ctx.Done():
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > f.cfg.ReconnectMax {
			backoff = f.cfg.ReconnectMax
		}
	}
}

// watchOnce consumes one connection's worth of the node's watch stream.
func (f *Fleet) watchOnce(nc *nodeClient) (events int, err error) {
	sctx, _ := nc.stream()
	req, err := http.NewRequestWithContext(sctx, http.MethodGet, nc.baseURL()+"/cluster/v1/watch", nil)
	if err != nil {
		return 0, err
	}
	resp, err := f.cfg.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, decodeErrorResponse(resp)
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var ev NodeEvent
		if err := dec.Decode(&ev); err != nil {
			return events, err
		}
		events++
		nc.lastEvent.Store(&ev)
		nc.watchLive.Store(true)
	}
}

// superviseIngest keeps one persistent streaming-ingest connection open to
// the node, writing queued batches as NDJSON lines and reconnecting with
// backoff when the stream breaks. Batches that hit a broken stream are
// dropped and counted missed — the node's components degrade while it is
// down and recover as fresh snapshots arrive after it returns, exactly the
// per-component degradation contract.
func (f *Fleet) superviseIngest(nc *nodeClient) {
	defer f.wg.Done()
	backoff := f.cfg.ReconnectMin
	for {
		wrote, err := f.ingestOnce(nc)
		nc.ingestLive.Store(false)
		if f.ctx.Err() != nil {
			return
		}
		if wrote > 0 {
			backoff = f.cfg.ReconnectMin
		}
		f.cfg.Logf("cluster: node %s ingest stream ended after %d snapshots: %v (reconnect in %v)", nc.id, wrote, err, backoff)
		select {
		case <-f.ctx.Done():
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > f.cfg.ReconnectMax {
			backoff = f.cfg.ReconnectMax
		}
	}
}

// ingestOnce runs one streaming-ingest connection until it breaks or the
// fleet closes, returning how many snapshots it delivered.
//
// Before consuming any batch it probes the node's stats endpoint and
// requires the node to report this fleet's assignment generation. An HTTP
// server cannot deliver an early error response while a chunked request
// body is still streaming, so a node that is not (yet) on the right
// assignment aborts the connection without diagnosis — the probe keeps
// queued batches out of a stream that would be severed, and surfaces why.
func (f *Fleet) ingestOnce(nc *nodeClient) (wrote int, err error) {
	f.mu.Lock()
	gen := f.assignment
	f.mu.Unlock()
	sctx, batches := nc.stream()
	probeCtx, cancelProbe := context.WithTimeout(sctx, 10*time.Second)
	var ev NodeEvent
	err = getJSON(probeCtx, f.cfg.Client, nc.baseURL()+"/cluster/v1/stats", &ev)
	cancelProbe()
	if err != nil {
		return 0, fmt.Errorf("probe: %w", err)
	}
	if ev.Assignment != gen {
		return 0, fmt.Errorf("node reports assignment %d, fleet runs %d", ev.Assignment, gen)
	}
	nc.setBase(sctx, ev.Snapshots)
	pr, pw := io.Pipe()
	url := fmt.Sprintf("%s/cluster/v1/ingest?assignment=%d", nc.baseURL(), gen)
	req, err := http.NewRequestWithContext(sctx, http.MethodPost, url, pr)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	type reply struct {
		resp *http.Response
		err  error
	}
	done := make(chan reply, 1)
	go func() {
		resp, err := f.cfg.Client.Do(req)
		done <- reply{resp, err}
	}()
	// The node answered the probe on the right assignment and the stream
	// request is under way: deliveries now reach the node rather than being
	// dropped, which is what ingest-liveness means to ClusterNodes readers
	// (e.g. an operator waiting out a node restart before streaming).
	nc.ingestLive.Store(true)
	finish := func(cause error) (int, error) {
		_ = pw.CloseWithError(cause)
		r := <-done
		if r.err != nil {
			return wrote, r.err
		}
		defer r.resp.Body.Close()
		if r.resp.StatusCode != http.StatusOK {
			return wrote, decodeErrorResponse(r.resp)
		}
		_, _ = io.Copy(io.Discard, r.resp.Body)
		return wrote, cause
	}
	var line []byte // one record, reused: pw.Write returns once the node has read it
	for {
		select {
		case <-sctx.Done():
			return finish(nil) // graceful: node acks what it folded
		case r := <-done:
			// Server ended the stream from its side (error or rejection).
			if r.err == nil {
				defer r.resp.Body.Close()
				if r.resp.StatusCode != http.StatusOK {
					return wrote, decodeErrorResponse(r.resp)
				}
				return wrote, errors.New("ingest stream closed by node")
			}
			return wrote, r.err
		case batch := <-batches:
			var err error
			if line, err = appendIngestLine(line[:0], batch); err == nil {
				_, err = pw.Write(line)
			}
			if err != nil {
				nc.missed.Add(int64(len(batch)))
				return finish(err)
			}
			nc.ingestLive.Store(true)
			wrote += len(batch)
		}
	}
}

// --- lia.Inferencer: ingestion ---

// RoutingMatrix returns the global matrix the fleet operates on.
func (f *Fleet) RoutingMatrix() *lia.RoutingMatrix { return f.rm }

// Partition returns the topology decomposition behind the placement.
func (f *Fleet) Partition() *lia.Partition { return f.part }

// Snapshots returns the lifetime number of snapshots accepted for scatter.
func (f *Fleet) Snapshots() int { return int(f.epoch.Load()) }

// Threshold returns the effective congestion threshold tl.
func (f *Fleet) Threshold() float64 { return f.cfg.Options.threshold() }

// errNotPlaced reports the fleet's cold state as the standard retryable
// warm-up sentinel.
func (f *Fleet) errNotPlaced(nodes int) error {
	return fmt.Errorf("cluster: fleet has %d of %d nodes, components not placed: %w",
		nodes, f.cfg.Size, lia.ErrTooFewSnapshots)
}

func (f *Fleet) checkDim(y []float64) error {
	if len(y) != f.rm.NumPaths() {
		return fmt.Errorf("%w: snapshot has %d paths, matrix has %d",
			lia.ErrDimensionMismatch, len(y), f.rm.NumPaths())
	}
	return nil
}

// checkFinite rejects a snapshot the ingest stream cannot carry. JSON has
// no NaN or ±Inf: a batch holding one would fail to encode on the streams
// of the nodes it reaches and be dropped there alone, leaving components on
// different nodes learning from different snapshot sequences.
func checkFinite(y []float64) error {
	for p, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("non-finite value %v at path %d", v, p)
		}
	}
	return nil
}

// Ingest folds one learning snapshot, scattering its rows to the owning
// nodes' ingest streams.
func (f *Fleet) Ingest(y []float64) error { return f.IngestBatch([][]float64{y}) }

// IngestBatch folds a batch of snapshots under one serialisation point: all
// vectors are validated first (dimension, and finite values), then every
// node receives its projection of the whole batch in order. Delivery to a
// down node is dropped (counted missed) rather than blocking the fleet —
// its components degrade, every other component's learning is unaffected.
func (f *Fleet) IngestBatch(ys [][]float64) error {
	for i, y := range ys {
		err := f.checkDim(y)
		if err == nil {
			err = checkFinite(y)
		}
		if err != nil {
			return fmt.Errorf("cluster: batch snapshot %d of %d (0 ingested): %w", i, len(ys), err)
		}
	}
	if len(ys) == 0 {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.placed {
		return f.errNotPlaced(len(f.nodes))
	}
	for _, nc := range f.carriers {
		batch := make([][]float64, len(ys))
		for i, y := range ys {
			batch[i] = nc.share.scatter(y)
		}
		select {
		case nc.batches <- batch:
			nc.sent.Add(int64(len(ys)))
		default:
			nc.missed.Add(int64(len(ys)))
			f.cfg.Logf("cluster: node %s ingest queue full, dropped %d snapshots", nc.id, len(ys))
		}
	}
	f.epoch.Add(uint64(len(ys)))
	return nil
}

// Consume pulls snapshots from a source until it is exhausted or the
// context is cancelled, scattering them to the fleet in the same batches as
// Engine.Consume.
func (f *Fleet) Consume(ctx context.Context, src lia.SnapshotSource) (int, error) {
	return lia.ConsumeSource(ctx, src, f.rm, f.IngestBatch)
}

// --- lia.Inferencer: gathered queries ---

// placedNodes snapshots the nodes carrying components, in ID order, for a
// gather; the error is the cold-start sentinel while the fleet is
// incomplete.
func (f *Fleet) placedNodes() ([]*nodeClient, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.placed {
		return nil, f.errNotPlaced(len(f.nodes))
	}
	return f.carriers, nil
}

// gather fans one query out to every carrying node concurrently and
// returns one part per node — its answer in node link order, or the error
// that charges all its links — with the per-node link maps, for the
// lia.GatherResult/GatherSteady assembly.
func (f *Fleet) gather(ctx context.Context, query func(ctx context.Context, nc *nodeClient) (*GatherResponse, error)) (links [][]int, parts []*GatherResponse, errs []error, err error) {
	nodes, err := f.placedNodes()
	if err != nil {
		return nil, nil, nil, err
	}
	links = make([][]int, len(nodes))
	parts = make([]*GatherResponse, len(nodes))
	errs = make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, nc := range nodes {
		links[i] = nc.share.links
		wg.Add(1)
		go func() {
			defer wg.Done()
			gr, err := query(ctx, nc)
			if err == nil && len(gr.Variances) != len(nc.share.links) {
				err = fmt.Errorf("answered %d links, share has %d", len(gr.Variances), len(nc.share.links))
			}
			if err != nil {
				errs[i] = fmt.Errorf("node %s: %w", nc.id, err)
				return
			}
			parts[i] = gr
		}()
	}
	wg.Wait()
	return links, parts, errs, nil
}

// inferNode posts one node its projection of the observation vector.
func (f *Fleet) inferNode(ctx context.Context, nc *nodeClient, y []float64) (*GatherResponse, error) {
	body, err := appendInferRequest(nil, nc.share.scatter(y))
	if err != nil {
		return nil, err
	}
	resp, err := postJSON(ctx, f.cfg.Client, nc.baseURL()+"/cluster/v1/infer", body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var gr GatherResponse
	if err := json.NewDecoder(resp.Body).Decode(&gr); err != nil {
		return nil, err
	}
	return &gr, nil
}

// steadyNode fetches one node's steady-state gather.
func (f *Fleet) steadyNode(ctx context.Context, nc *nodeClient) (*GatherResponse, error) {
	var gr GatherResponse
	if err := getJSON(ctx, f.cfg.Client, nc.baseURL()+"/cluster/v1/steady", &gr); err != nil {
		return nil, err
	}
	return &gr, nil
}

// Infer runs Phase 2 on one global observation vector: each carrying node
// solves its components' reduced systems, and the per-node results gather
// back into global link order, bitwise-identical to a single-process
// engine over the same snapshots. A failing component (or dead node)
// degrades only its own links — zeroed, in neither Kept nor Removed, and
// listed in Result.Unresolved; only a gather in which every component
// fails returns an error.
func (f *Fleet) Infer(ctx context.Context, y []float64) (*lia.Result, error) {
	if err := f.checkDim(y); err != nil {
		return nil, err
	}
	links, parts, errs, err := f.gather(ctx, func(ctx context.Context, nc *nodeClient) (*GatherResponse, error) {
		return f.inferNode(ctx, nc, y)
	})
	if err != nil {
		return nil, err
	}
	results := make([]*lia.Result, len(parts))
	for i, gr := range parts {
		if gr != nil {
			results[i] = &lia.Result{LossRates: gr.LossRates, LogRates: gr.LogRates, Variances: gr.Variances,
				Kept: gr.Kept, Removed: gr.Removed, Unresolved: gr.Unresolved, Epoch: gr.Epoch}
		}
	}
	return lia.GatherResult(ctx, f.rm.NumLinks(), links, results, errs)
}

// InferCongested runs Infer and classifies every virtual link against the
// fleet's congestion threshold.
func (f *Fleet) InferCongested(ctx context.Context, y []float64) ([]bool, *lia.Result, error) {
	res, err := f.Infer(ctx, y)
	if err != nil {
		return nil, nil, err
	}
	return res.Congested(f.Threshold()), res, nil
}

// Steady returns the steady-state learning view gathered across the fleet
// in global link order, with the sharded degradation contract (failed
// components' links in Unresolved).
func (f *Fleet) Steady(ctx context.Context) (*lia.SteadyState, error) {
	links, parts, errs, err := f.gather(ctx, f.steadyNode)
	if err != nil {
		return nil, err
	}
	states := make([]*lia.SteadyState, len(parts))
	for i, gr := range parts {
		if gr != nil {
			states[i] = &lia.SteadyState{Variances: gr.Variances, Kept: gr.Kept, Removed: gr.Removed,
				Unresolved: gr.Unresolved, Epoch: gr.Epoch}
		}
	}
	return lia.GatherSteady(ctx, f.rm.NumLinks(), links, states, errs)
}

// Variances returns the Phase-1 per-link variance estimates in global link
// order; a failed component's links report zero (see Steady).
func (f *Fleet) Variances(ctx context.Context) ([]float64, error) {
	st, err := f.Steady(ctx)
	if err != nil {
		return nil, err
	}
	return st.Variances, nil
}

// Eliminated returns the Phase-2 kept/removed partition in global link
// order; a failed component's links appear in neither slice.
func (f *Fleet) Eliminated(ctx context.Context) (kept, removed []int, err error) {
	st, err := f.Steady(ctx)
	if err != nil {
		return nil, nil, err
	}
	return st.Kept, st.Removed, nil
}

// --- observability ---

// componentState returns the cached watch-stream state of component c and
// whether its owner is reachable.
func (f *Fleet) componentState(nc *nodeClient, c int) (ComponentState, bool) {
	ev := nc.lastEvent.Load()
	if ev == nil || !nc.watchLive.Load() {
		return ComponentState{Component: c, StateEpoch: -1}, false
	}
	for _, cs := range ev.Components {
		if cs.Component == c {
			return cs, true
		}
	}
	return ComponentState{Component: c, StateEpoch: -1}, false
}

// ComponentStats reports each component's counters in component-index
// order, from the nodes' cached watch events — non-blocking, so Stats and
// the watch endpoint never stall on a dead node. A component whose owner
// is unreachable reports Degraded with an explanatory LastError.
func (f *Fleet) ComponentStats() []lia.Stats {
	f.mu.Lock()
	owners := append([]*nodeClient(nil), f.owners...)
	f.mu.Unlock()
	out := make([]lia.Stats, len(owners))
	for c, nc := range owners {
		if nc == nil {
			out[c] = lia.Stats{StateEpoch: -1, Degraded: true, LastError: "component not placed"}
			continue
		}
		cs, live := f.componentState(nc, c)
		out[c] = lia.Stats{
			Snapshots:       cs.Snapshots,
			StateEpoch:      cs.StateEpoch,
			EpochLag:        cs.EpochLag,
			Rebuilds:        cs.Rebuilds,
			ElimReuses:      cs.ElimReuses,
			RebuildFailures: cs.RebuildFailures,
			DeltaRebuilds:   cs.DeltaRebuilds,
			DirtyShards:     cs.DirtyShards,
			Degraded:        cs.Degraded || !live,
			LastError:       cs.LastError,
		}
		if !live && out[c].LastError == "" {
			out[c].LastError = fmt.Sprintf("node %s unreachable", nc.id)
		}
	}
	return out
}

// Stats aggregates the fleet's observability counters through the same
// fold as ShardedEngine.Stats (lia.GatherStats): Components is the
// partition size, Shards the number of nodes carrying components, and the
// degradation surface counts components that are failing or whose owner is
// unreachable. DirtyComponents counts the healthy components whose state
// trails their snapshots, and LastError is the first degraded component's —
// for a dead node, the "node ... unreachable" that /readyz reports.
func (f *Fleet) Stats() lia.Stats {
	f.mu.Lock()
	placed, shards := f.placed, len(f.carriers)
	f.mu.Unlock()
	snapshots := f.Snapshots()
	var s lia.Stats
	if placed {
		comps := f.ComponentStats()
		s = lia.GatherStats(snapshots, comps)
		for _, cs := range comps {
			if cs.EpochLag > 0 && !cs.Degraded {
				s.DirtyComponents++
			}
			if cs.Degraded && s.LastError == "" {
				s.LastError = cs.LastError
			}
		}
	} else {
		s = lia.Stats{Snapshots: snapshots, StateEpoch: -1, EpochLag: snapshots,
			Degraded: true, DegradedComponents: len(f.owners)}
	}
	s.Shards, s.Components = shards, len(f.owners)
	s.Window, s.Decay = f.cfg.Options.Window, f.cfg.Options.Decay
	return s
}

// ClusterNodes reports the fleet size view for metrics: total registered
// nodes and how many have both a live ingest stream and a live watch
// stream. Waiting for live == total after a node restart guarantees that
// subsequent IngestBatch deliveries are not dropped against a
// still-reconnecting stream.
func (f *Fleet) ClusterNodes() (total, live int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, nc := range f.nodes {
		total++
		if nc.watchLive.Load() && nc.ingestLive.Load() {
			live++
		}
	}
	return total, live
}

// Synced blocks until every node's folded snapshot count has caught up
// with what the fleet delivered to it (sent minus known-missed) on top of
// the state the node started its incarnation with (a restarted node may
// restore folded snapshots from its StateDir), or the context expires — the
// barrier tests and smoke drivers use between ingestion and a parity query.
func (f *Fleet) Synced(ctx context.Context) error {
	for attempt := 0; ; attempt++ {
		lagging := ""
		nodes, err := f.placedNodes()
		if err != nil {
			lagging = err.Error()
		} else {
			for _, nc := range nodes {
				expect, known := nc.expected()
				if !known {
					lagging = fmt.Sprintf("node %s has no ingest stream yet", nc.id)
					break
				}
				var ev NodeEvent
				if err := getJSON(ctx, f.cfg.Client, nc.baseURL()+"/cluster/v1/stats", &ev); err != nil {
					lagging = fmt.Sprintf("node %s: %v", nc.id, err)
					break
				}
				if int64(ev.Snapshots) < expect {
					lagging = fmt.Sprintf("node %s folded %d of %d", nc.id, ev.Snapshots, expect)
					break
				}
			}
		}
		if lagging == "" {
			return nil
		}
		if attempt%50 == 49 {
			f.cfg.Logf("cluster: still waiting for sync: %s", lagging)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// Missed reports snapshots dropped on the way to down or backlogged nodes,
// summed across the fleet.
func (f *Fleet) Missed() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var n int64
	for _, nc := range f.nodes {
		n += nc.missed.Load()
	}
	return n
}
