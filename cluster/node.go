package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"time"

	"lia"
)

// placement is one immutable assignment generation: handlers snapshot it
// once and work against it, so a concurrent re-assign can never interleave
// two generations inside one request.
type placement struct {
	assignment uint64
	// eng runs every assigned component: lia.New over the node matrix, so a
	// ShardedEngine for several components and a plain Engine for one,
	// wrapped in a DurableEngine when the node has a StateDir. Nil when the
	// node carries no components.
	eng   lia.Inferencer
	comps []int // global component index of each of eng's components
	paths int
}

// Node is the worker side of a cluster: it accepts component assignments
// from a coordinator, runs them all on one lia engine, folds in the
// snapshot stream the coordinator scatters to it, and answers the gather
// and watch calls. Zero value is not usable; construct with NewNode.
type Node struct {
	// ID identifies the node across reconnects; the coordinator keys
	// placement on it, so a restarted node with the same ID gets its
	// components back.
	ID string

	// WatchPoll and WatchHeartbeat pace the /cluster/v1/watch push stream
	// (defaults 50ms / 10s).
	WatchPoll      time.Duration
	WatchHeartbeat time.Duration

	// StateDir, when non-empty, makes the node's engine durable: it
	// journals snapshots to one WAL and checkpoints moments under
	// StateDir/placement-%016x, a directory keyed by a hash of the placed
	// components (their global indices and paths). A restarted node that
	// receives the same placement back restores its moments from that
	// directory — bitwise-identical to the state at the kill — before the
	// coordinator resumes its stream; a different placement gets a
	// different directory and boots cold, so it never replays another
	// placement's journal. Directories of earlier placements are left in
	// place. State that is unsalvageable is wiped and boots cold (the log
	// records it); the node never refuses an assignment over dead state.
	// Set before serving.
	StateDir string

	// Durability tunes the WAL and checkpoint cadence when StateDir is set
	// (zero value = lia defaults).
	Durability lia.DurabilityOptions

	// Logf receives supervision logs (default log is discarded).
	Logf func(format string, args ...any)

	mu    sync.Mutex
	place *placement // nil before the first assignment
}

// NewNode creates a node with the given stable identity.
func NewNode(id string) *Node {
	return &Node{
		ID:             id,
		WatchPoll:      50 * time.Millisecond,
		WatchHeartbeat: 10 * time.Second,
		Logf:           func(string, ...any) {},
	}
}

// Handler returns the node's cluster-protocol HTTP handler.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/v1/assign", n.handleAssign)
	mux.HandleFunc("POST /cluster/v1/ingest", n.handleIngest)
	mux.HandleFunc("POST /cluster/v1/infer", n.handleInfer)
	mux.HandleFunc("GET /cluster/v1/steady", n.handleSteady)
	mux.HandleFunc("GET /cluster/v1/stats", n.handleStats)
	mux.HandleFunc("GET /cluster/v1/watch", n.handleWatch)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, "ok\n")
	})
	return mux
}

// current returns the active placement, or nil before assignment.
func (n *Node) current() *placement {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.place
}

// Assignment returns the active assignment generation (0 before any).
func (n *Node) Assignment() uint64 {
	if p := n.current(); p != nil {
		return p.assignment
	}
	return 0
}

// Snapshots returns the snapshots folded into the active placement.
func (n *Node) Snapshots() int {
	if p := n.current(); p != nil && p.eng != nil {
		return p.eng.Snapshots()
	}
	return 0
}

// Close releases the active placement's engine after the node's HTTP
// server has drained. For a durable node (StateDir set) this writes the
// final checkpoint, so the next boot restores without WAL replay; a node
// killed without Close recovers the same state, just by replaying the
// journal tail. A later assignment builds a fresh engine.
func (n *Node) Close() error {
	n.mu.Lock()
	p := n.place
	n.place = nil
	n.mu.Unlock()
	return p.close()
}

// close releases the placement's durable resources, if any.
func (p *placement) close() error {
	if p == nil {
		return nil
	}
	if c, ok := p.eng.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// apply installs a new placement from an assignment request, discarding any
// older generation's engine and its learning state.
func (n *Node) apply(req AssignRequest) (*placement, error) {
	opts, err := req.Options.Options()
	if err != nil {
		return nil, err
	}
	p := &placement{assignment: req.Assignment}
	if len(req.Components) > 0 {
		rm, err := nodeMatrix(req.Components)
		if err != nil {
			return nil, err
		}
		if p.comps, err = componentIndices(rm, req.Components); err != nil {
			return nil, err
		}
		if p.eng, err = n.buildEngine(rm, req.Components, opts); err != nil {
			return nil, err
		}
		p.paths = rm.NumPaths()
	}
	n.mu.Lock()
	old := n.place
	n.place = p
	n.mu.Unlock()
	if old != nil {
		// Release the superseded generation's durable resources: a final
		// checkpoint lands and its WAL handle closes, so the state on disk
		// is consistent right up to the handover (and an in-flight old-
		// generation stream fails fast instead of journalling into it).
		if err := old.close(); err != nil {
			n.Logf("cluster node %s: closing superseded assignment %d: %v", n.ID, old.assignment, err)
		}
		n.Logf("cluster node %s: assignment %d supersedes %d (%d components, %d paths)",
			n.ID, p.assignment, old.assignment, len(p.comps), p.paths)
	} else {
		n.Logf("cluster node %s: assignment %d (%d components, %d paths)",
			n.ID, p.assignment, len(p.comps), p.paths)
	}
	return p, nil
}

// componentIndices maps the node engine's components — the link-connected
// components of the node matrix, in lia.NewPartition order, which is the
// order a ShardedEngine reports them in — to their global indices.
func componentIndices(rm *lia.RoutingMatrix, comps []ComponentAssignment) ([]int, error) {
	part := lia.NewPartition(rm)
	if part.NumComponents() != len(comps) {
		return nil, fmt.Errorf("%d assigned components form %d link-connected components", len(comps), part.NumComponents())
	}
	owner := make([]int, 0, rm.NumPaths())
	for _, ca := range comps {
		for range ca.Paths {
			owner = append(owner, ca.Component)
		}
	}
	ids := make([]int, part.NumComponents())
	for c := range ids {
		ids[c] = owner[part.Component(c).Paths[0]]
	}
	return ids, nil
}

// placementDir names a placement's durable state directory by a hash of its
// components' global indices and paths, so a node re-placed onto a
// different component set never restores or replays another placement's
// state.
func placementDir(comps []ComponentAssignment) string {
	h := fnv.New64a()
	_ = json.NewEncoder(h).Encode(comps)
	return fmt.Sprintf("placement-%016x", h.Sum64())
}

// buildEngine constructs the placement's engine: lia.New over the node
// matrix, durable under StateDir's placement directory when the node has a
// StateDir, restoring the moments a previous process of this node persisted
// for the same placement. Unsalvageable state is wiped for a cold boot
// rather than refusing the assignment: the coordinator's stream re-teaches
// a cold node, a node stuck rejecting assignments teaches nothing.
func (n *Node) buildEngine(rm *lia.RoutingMatrix, comps []ComponentAssignment, opts []lia.Option) (lia.Inferencer, error) {
	if n.StateDir == "" {
		return lia.New(rm, opts...)
	}
	dir := filepath.Join(n.StateDir, placementDir(comps))
	opts = append(opts, lia.WithDurability(dir, n.Durability))
	eng, err := lia.New(rm, opts...)
	var corrupt *lia.CorruptStateError
	if errors.As(err, &corrupt) {
		n.Logf("cluster node %s: state in %s unsalvageable, booting cold: %v", n.ID, dir, err)
		if err := os.RemoveAll(dir); err != nil {
			return nil, fmt.Errorf("clearing corrupt state dir: %w", err)
		}
		eng, err = lia.New(rm, opts...)
	}
	if err != nil {
		return nil, err
	}
	if ds := eng.(*lia.DurableEngine).DurabilityStats(); ds.RecoveredEpoch > 0 || ds.ReplayedSnapshots > 0 {
		n.Logf("cluster node %s: restored epoch %d (+%d replayed) from %s",
			n.ID, ds.RecoveredEpoch, ds.ReplayedSnapshots, dir)
	}
	return eng, nil
}

func (n *Node) handleAssign(w http.ResponseWriter, r *http.Request) {
	var req AssignRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "", fmt.Errorf("decode assignment: %w", err))
		return
	}
	if req.NodeID != n.ID {
		writeError(w, http.StatusBadRequest, "", fmt.Errorf("assignment addressed to node %q, this is %q", req.NodeID, n.ID))
		return
	}
	if cur := n.current(); cur != nil && req.Assignment <= cur.assignment {
		writeError(w, http.StatusConflict, codeStaleAssignment,
			fmt.Errorf("assignment %d is not newer than active %d", req.Assignment, cur.assignment))
		return
	}
	p, err := n.apply(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "", err)
		return
	}
	writeJSON(w, http.StatusOK, AssignResponse{
		NodeID:     n.ID,
		Assignment: p.assignment,
		Components: len(p.comps),
		Paths:      p.paths,
	})
}

// parseAssignment reads a request's assignment generation (query parameter
// "assignment"; 0 when absent, which skips the check — used by read paths
// that accept whatever is current).
func parseAssignment(r *http.Request) (uint64, error) {
	q := r.URL.Query().Get("assignment")
	if q == "" {
		return 0, nil
	}
	gen, err := strconv.ParseUint(q, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad assignment %q", q)
	}
	return gen, nil
}

// requirePlacement resolves the active placement, checks the request's
// assignment generation, and requires an engine (a node assigned no
// components has nothing to answer with).
func (n *Node) requirePlacement(w http.ResponseWriter, r *http.Request) (*placement, bool) {
	p := n.current()
	if p == nil || p.eng == nil {
		writeError(w, http.StatusConflict, codeNotAssigned, errors.New("node has no component assignment"))
		return nil, false
	}
	gen, err := parseAssignment(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "", err)
		return nil, false
	}
	if gen != 0 && gen != p.assignment {
		writeError(w, http.StatusConflict, codeStaleAssignment,
			fmt.Errorf("request is for assignment %d, node runs %d", gen, p.assignment))
		return nil, false
	}
	return p, true
}

// handleIngest serves POST /cluster/v1/ingest: the coordinator's persistent
// NDJSON snapshot stream. Each line carries a batch of node-local
// observation vectors, folded atomically by the node's engine (a bad
// snapshot leaves every component untouched). The stream is pinned to an
// assignment generation — a re-assignment severs it mid-flight rather than
// folding old-placement snapshots into a new engine.
//
// Rejections ABORT the connection instead of writing an error response.
// Go's HTTP server withholds a handler's response while a chunked request
// body is still streaming (it drains up to 256KB after the handler returns
// before flushing, to dodge a TCP-reset race), so a status code written
// mid-stream is invisible to a coordinator that keeps the pipe open — its
// batches would drain into a rejected stream silently. Severing the
// connection is the only rejection signal that arrives promptly; the
// coordinator re-probes GET /cluster/v1/stats before reconnecting, which
// carries the full diagnosis.
func (n *Node) handleIngest(w http.ResponseWriter, r *http.Request) {
	p := n.current()
	gen, err := parseAssignment(r)
	abort := func(why error) {
		n.Logf("cluster node %s: aborting ingest stream (assignment=%d): %v", n.ID, gen, why)
		panic(http.ErrAbortHandler)
	}
	switch {
	case err != nil:
		abort(err)
	case p == nil || p.eng == nil:
		abort(errors.New("node has no component assignment"))
	case gen != 0 && gen != p.assignment:
		abort(fmt.Errorf("stream is for assignment %d, node runs %d", gen, p.assignment))
	}
	// Records are newline-delimited. The scanner reuses one buffer, grown
	// to the longest record, for the whole stream.
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 4096), math.MaxInt)
	ingested, rec := 0, 0
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.Trim(line, " \t\r")) == 0 {
			continue // whitespace between records, as json.Decoder skipped it
		}
		ys, err := decodeIngestLine(line)
		if err != nil {
			abort(fmt.Errorf("ingest record %d (%d ingested): decode: %w", rec, ingested, err))
		}
		if n.current() != p {
			abort(fmt.Errorf("ingest record %d (%d ingested): assignment %d superseded", rec, ingested, p.assignment))
		}
		if err := p.eng.IngestBatch(ys); err != nil {
			abort(fmt.Errorf("ingest record %d (%d ingested): %w", rec, ingested, err))
		}
		ingested += len(ys)
		rec++
	}
	if err := sc.Err(); err != nil {
		abort(fmt.Errorf("ingest record %d (%d ingested): read: %w", rec, ingested, err))
	}
	writeJSON(w, http.StatusOK, IngestSummary{
		NodeID:    n.ID,
		Ingested:  ingested,
		Snapshots: p.eng.Snapshots(),
	})
}

// handleInfer serves POST /cluster/v1/infer: Phase 2 on one node-local
// observation vector. The engine isolates component failures itself (a
// failed component's links come back Unresolved); only a request every
// component fails answers with an error.
func (n *Node) handleInfer(w http.ResponseWriter, r *http.Request) {
	p, ok := n.requirePlacement(w, r)
	if !ok {
		return
	}
	body, err := io.ReadAll(r.Body)
	var req InferRequest
	if err == nil {
		req, err = decodeInferRequest(body)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "", fmt.Errorf("decode: %w", err))
		return
	}
	snapshots := p.eng.Snapshots()
	res, err := p.eng.Infer(r.Context(), req.Y)
	if err != nil {
		writeError(w, errStatus(err), wireCode(err), err)
		return
	}
	writeJSON(w, http.StatusOK, GatherResponse{
		NodeID: n.ID, Assignment: p.assignment, Snapshots: snapshots, Epoch: res.Epoch,
		LossRates: res.LossRates, LogRates: res.LogRates, Variances: res.Variances,
		Kept: res.Kept, Removed: res.Removed, Unresolved: res.Unresolved,
	})
}

// handleSteady serves GET /cluster/v1/steady: the engine's consistent
// steady-state view, with the same failure isolation as handleInfer.
func (n *Node) handleSteady(w http.ResponseWriter, r *http.Request) {
	p, ok := n.requirePlacement(w, r)
	if !ok {
		return
	}
	snapshots := p.eng.Snapshots()
	st, err := p.eng.Steady(r.Context())
	if err != nil {
		writeError(w, errStatus(err), wireCode(err), err)
		return
	}
	writeJSON(w, http.StatusOK, GatherResponse{
		NodeID: n.ID, Assignment: p.assignment, Snapshots: snapshots, Epoch: st.Epoch,
		Variances: st.Variances, Kept: st.Kept, Removed: st.Removed, Unresolved: st.Unresolved,
	})
}

// componentStats returns the per-component stats of a node engine, in the
// engine's component order: a ShardedEngine reports each, a plain Engine is
// one component.
func componentStats(eng lia.Inferencer) []lia.Stats {
	if d, ok := eng.(*lia.DurableEngine); ok {
		eng = d.Inner()
	}
	if s, ok := eng.(*lia.ShardedEngine); ok {
		return s.ComponentStats()
	}
	return []lia.Stats{eng.Stats()}
}

// event assembles the node's current epoch state; per-component stats
// carry their global component indices.
func (n *Node) event(typ string) NodeEvent {
	ev := NodeEvent{Type: typ, NodeID: n.ID, StateEpoch: -1}
	p := n.current()
	if p == nil {
		return ev
	}
	ev.Assignment = p.assignment
	if p.eng == nil {
		return ev
	}
	ev.Snapshots = p.eng.Snapshots()
	comps := componentStats(p.eng)
	s := lia.GatherStats(ev.Snapshots, comps)
	ev.StateEpoch, ev.Degraded = s.StateEpoch, s.Degraded
	for c, cs := range comps {
		ev.Components = append(ev.Components, ComponentState{
			Component:       p.comps[c],
			Snapshots:       cs.Snapshots,
			StateEpoch:      cs.StateEpoch,
			EpochLag:        cs.EpochLag,
			Rebuilds:        cs.Rebuilds,
			ElimReuses:      cs.ElimReuses,
			RebuildFailures: cs.RebuildFailures,
			DeltaRebuilds:   cs.DeltaRebuilds,
			DirtyShards:     cs.DirtyShards,
			Degraded:        cs.Unhealthy(),
			LastError:       cs.LastError,
		})
		if cs.EpochLag > 0 {
			ev.DirtyComponents++
		}
	}
	return ev
}

func (n *Node) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, n.event("stats"))
}

// handleWatch serves GET /cluster/v1/watch: an NDJSON push stream of
// NodeEvents — the current state immediately, a new event whenever the
// node's epoch state changes, and heartbeats while it does not. The
// coordinator tails this stream to track fleet freshness without polling.
func (n *Node) handleWatch(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "", errors.New("response writer cannot stream"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)

	enc := json.NewEncoder(w)
	emit := func(ev NodeEvent) bool {
		if err := enc.Encode(ev); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}
	last := n.event("epoch")
	if !emit(last) {
		return
	}
	lastWrite := time.Now()
	ticker := time.NewTicker(n.WatchPoll)
	defer ticker.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
		}
		ev := n.event("epoch")
		switch {
		case !sameNodeState(ev, last):
			if !emit(ev) {
				return
			}
			last, lastWrite = ev, time.Now()
		case time.Since(lastWrite) >= n.WatchHeartbeat:
			ev.Type = "heartbeat"
			if !emit(ev) {
				return
			}
			lastWrite = time.Now()
		}
	}
}

// sameNodeState reports whether two events describe the same node state
// (everything but the event type).
func sameNodeState(a, b NodeEvent) bool {
	a.Type, b.Type = "", ""
	return reflect.DeepEqual(a, b)
}

// Register announces the node to a coordinator, retrying with exponential
// backoff until it succeeds or the context ends. The coordinator calls back
// on /cluster/v1/assign once the fleet is complete.
func (n *Node) Register(ctx context.Context, client *http.Client, coordinatorURL, advertiseURL string) error {
	if client == nil {
		client = http.DefaultClient
	}
	body, err := json.Marshal(RegisterRequest{NodeID: n.ID, URL: advertiseURL})
	if err != nil {
		return err
	}
	backoff := 100 * time.Millisecond
	for {
		resp, err := postJSON(ctx, client, coordinatorURL+"/cluster/v1/register", body)
		if err == nil {
			var ack RegisterResponse
			err = json.NewDecoder(resp.Body).Decode(&ack)
			_ = resp.Body.Close()
			if err == nil {
				n.Logf("cluster node %s: registered with %s (%d/%d nodes, placed=%v)",
					n.ID, coordinatorURL, ack.Nodes, ack.Size, ack.Placed)
				return nil
			}
		}
		n.Logf("cluster node %s: register with %s failed (retrying in %v): %v", n.ID, coordinatorURL, backoff, err)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > 5*time.Second {
			backoff = 5 * time.Second
		}
	}
}

// postJSON posts a JSON body and returns the response, turning non-2xx
// statuses into errors carrying the remote ErrorResponse.
func postJSON(ctx context.Context, client *http.Client, url string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, readerFor(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		defer resp.Body.Close()
		return nil, decodeErrorResponse(resp)
	}
	return resp, nil
}
