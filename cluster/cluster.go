// Package cluster scales liaserve horizontally: one coordinator process
// places the link-connected components of a routing matrix (lia.Partition)
// across N registered liaserve nodes, scatters every incoming snapshot's
// per-component projection to the owning node over a persistent streaming
// ingest connection, and serves the full single-process API by gathering
// Infer/Steady/Stats across the fleet back into global link order.
//
// The decomposition is the same one lia.ShardedEngine exploits in-process:
// no covariance equation and no elimination decision couples two
// components, so a node running one lia.New engine over its assigned
// components' paths (a ShardedEngine when it carries several) produces
// estimates bitwise-identical to a single lia.New engine fed the same
// snapshots — the cluster changes where the arithmetic runs, never its
// result. Placement is the deterministic LPT grouping of Partition.Shards
// applied to the node IDs in sorted order, so the same topology and the
// same node set always yield the same placement regardless of join order.
//
// The fleet degrades per component exactly like ShardedEngine, because both
// assemble answers and stats through the same gather core (lia.GatherResult,
// lia.GatherSteady and lia.GatherStats): the fleet gathers one part per node,
// each node's engine gathers its own components, and a dead node or a
// degraded component marks only its own links Unresolved while every
// healthy component's estimates stay bitwise what they would be with no
// failure anywhere. The coordinator supervises one ingest stream and one
// epoch-watch stream per node, reconnecting with exponential backoff; a
// node that rejoins (same ID, any address) is re-assigned its components
// and resumes from the snapshots that arrive after it returns.
//
// Wire protocol (HTTP JSON + NDJSON streaming, dependency-free):
//
//	POST /cluster/v1/register   node -> coordinator: join the fleet
//	POST /cluster/v1/assign     coordinator -> node: component placement
//	POST /cluster/v1/ingest     coordinator -> node: NDJSON snapshot stream
//	POST /cluster/v1/infer      coordinator -> node: Phase-2 solve (scatter y)
//	GET  /cluster/v1/steady     coordinator -> node: steady-state gather
//	GET  /cluster/v1/stats      coordinator -> node: per-component counters
//	GET  /cluster/v1/watch      coordinator -> node: NDJSON epoch push stream
//
// Every payload is JSON. The ingest stream is newline-delimited: each
// record is one {"ys":[[…],…]} object on its own line, a batch of
// snapshots in the node's path order. Every float on the wire is encoded
// exactly as encoding/json encodes it — the shortest representation that
// round-trips bit-exactly, which is what makes gathered estimates
// bitwise-comparable to local ones. The fleet writes ingest records and
// infer requests with internal/jsonwire, which produces encoding/json's
// bytes without reflection; the node decodes canonical records and
// requests with its scanner and hands any other line to encoding/json.
package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"lia"
	"lia/internal/jsonwire"
)

// PathDoc is one measurement path on the wire (the liainfer topology
// document schema).
type PathDoc struct {
	Beacon int   `json:"beacon"`
	Dst    int   `json:"dst"`
	Links  []int `json:"links"`
}

// EngineOptions is the wire form of the lia engine options a coordinator
// propagates to its nodes, so every per-component solver in the fleet is
// configured exactly like the single-process engine it must match bitwise.
type EngineOptions struct {
	// Strategy selects the Phase-2 elimination: "paper" (default) or
	// "greedy".
	Strategy string `json:"strategy,omitempty"`
	// Threshold is the congestion threshold tl; honored (verbatim,
	// including 0) only when ThresholdSet is true.
	Threshold    float64 `json:"threshold,omitempty"`
	ThresholdSet bool    `json:"threshold_set,omitempty"`
	// Window / Decay select windowed or decayed moments (0 = cumulative).
	Window int     `json:"window,omitempty"`
	Decay  float64 `json:"decay,omitempty"`
	// Workers bounds each solver's Phase-1/Phase-2 goroutines (0 =
	// GOMAXPROCS on the node).
	Workers int `json:"workers,omitempty"`
}

// Options converts the wire form into lia engine options.
func (o EngineOptions) Options() ([]lia.Option, error) {
	var opts []lia.Option
	switch o.Strategy {
	case "", "paper":
	case "greedy":
		opts = append(opts, lia.WithStrategy(lia.StrategyGreedyBasis))
	default:
		return nil, fmt.Errorf("cluster: unknown elimination strategy %q", o.Strategy)
	}
	if o.ThresholdSet {
		opts = append(opts, lia.WithThreshold(o.Threshold))
	}
	if o.Window > 0 {
		opts = append(opts, lia.WithWindow(o.Window))
	}
	if o.Decay > 0 {
		opts = append(opts, lia.WithDecay(o.Decay))
	}
	if o.Workers > 0 {
		opts = append(opts, lia.WithWorkers(o.Workers))
	}
	return opts, nil
}

// threshold returns the effective congestion threshold the options select.
func (o EngineOptions) threshold() float64 {
	if o.ThresholdSet {
		return o.Threshold
	}
	return lia.DefaultThreshold
}

// RegisterRequest is the body of POST /cluster/v1/register: a node
// announcing itself to the coordinator. URL is the node's advertised base
// URL (scheme://host:port) the coordinator dials back.
type RegisterRequest struct {
	NodeID string `json:"node_id"`
	URL    string `json:"url"`
}

// RegisterResponse acknowledges a registration: how many nodes have joined
// of the expected fleet size, and whether placement has happened (a node
// whose registration completes the fleet sees placed=true; its assignment
// arrives as a callback to POST /cluster/v1/assign).
type RegisterResponse struct {
	NodeID string `json:"node_id"`
	Nodes  int    `json:"nodes"`
	Size   int    `json:"size"`
	Placed bool   `json:"placed"`
}

// ComponentAssignment is one link-connected component handed to a node: its
// global component index and its paths, global row order preserved. A node
// concatenates its components' paths into one routing matrix (nodeMatrix).
type ComponentAssignment struct {
	Component int       `json:"component"`
	Paths     []PathDoc `json:"paths"`
}

// nodeMatrix builds the routing matrix a node runs: its assigned
// components' paths concatenated in assignment order. The coordinator calls
// it too, to map the node's virtual links back to global ones — Build is
// deterministic, so both sides see the same link order.
func nodeMatrix(comps []ComponentAssignment) (*lia.RoutingMatrix, error) {
	var paths []lia.Path
	for _, ca := range comps {
		for _, pd := range ca.Paths {
			paths = append(paths, lia.Path{Beacon: pd.Beacon, Dst: pd.Dst, Links: pd.Links})
		}
	}
	return lia.NewTopology(paths)
}

// AssignRequest is the body of POST /cluster/v1/assign: the coordinator
// pushing a node its component placement. Assignment is a monotonically
// increasing generation; a node discards state from older generations, and
// the ingest stream carries the generation so snapshots can never fold into
// a stale placement.
type AssignRequest struct {
	NodeID     string                `json:"node_id"`
	Assignment uint64                `json:"assignment"`
	Options    EngineOptions         `json:"options"`
	Components []ComponentAssignment `json:"components"`
}

// AssignResponse acknowledges an assignment.
type AssignResponse struct {
	NodeID     string `json:"node_id"`
	Assignment uint64 `json:"assignment"`
	Components int    `json:"components"`
	Paths      int    `json:"paths"`
}

// ingestLine is one record of the POST /cluster/v1/ingest NDJSON stream:
// a batch of snapshots, each already projected to the node's local path
// order (the concatenation of its assigned components' paths).
type ingestLine struct {
	Ys [][]float64 `json:"ys"`
}

// appendIngestLine appends one ingest-stream record, newline included,
// byte-identical to json.Encoder's encoding of ingestLine{Ys: ys}. A
// non-finite value fails it and leaves dst unchanged.
func appendIngestLine(dst []byte, ys [][]float64) ([]byte, error) {
	b, err := jsonwire.AppendRows(append(dst, `{"ys":`...), ys)
	if err != nil {
		return dst, err
	}
	return append(b, "}\n"...), nil
}

// decodeIngestLine decodes one ingest-stream record: the canonical record
// through jsonwire's fast path, any other line through encoding/json.
func decodeIngestLine(line []byte) ([][]float64, error) {
	if ys, ok := jsonwire.DecodeRows(line, "ys"); ok {
		return ys, nil
	}
	var rec ingestLine
	err := json.Unmarshal(line, &rec)
	return rec.Ys, err
}

// IngestSummary is the terminal response of one ingest stream.
type IngestSummary struct {
	NodeID string `json:"node_id"`
	// Ingested is the number of snapshots this stream folded in.
	Ingested int `json:"ingested"`
	// Snapshots is the node's lifetime count afterwards.
	Snapshots int `json:"snapshots"`
}

// InferRequest is the body of POST /cluster/v1/infer: one observation
// vector in the node's local path order.
type InferRequest struct {
	Y []float64 `json:"y"`
}

// appendInferRequest appends an InferRequest body, byte-identical to
// json.Marshal(InferRequest{Y: y}).
func appendInferRequest(dst []byte, y []float64) ([]byte, error) {
	b, err := jsonwire.AppendFloats(append(dst, `{"y":`...), y)
	if err != nil {
		return dst, err
	}
	return append(b, '}'), nil
}

// decodeInferRequest decodes an InferRequest body as decodeIngestLine
// decodes a record; the fallback is a streaming decode, as the body was
// decoded before the fast path.
func decodeInferRequest(body []byte) (InferRequest, error) {
	if y, ok := jsonwire.DecodeFloats(body, "y"); ok {
		return InferRequest{Y: y}, nil
	}
	var req InferRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req, err
}

// GatherResponse is the body of /cluster/v1/infer and /cluster/v1/steady:
// the node engine's answer in the node's own link order (the coordinator
// owns the node->global link map), plus the node's snapshot count. Links of
// a failed component on the node are listed in Unresolved; a node whose
// every component failed answers with an ErrorResponse instead.
type GatherResponse struct {
	NodeID     string    `json:"node_id"`
	Assignment uint64    `json:"assignment"`
	Snapshots  int       `json:"snapshots"`
	Epoch      int       `json:"epoch"`
	LossRates  []float64 `json:"loss_rates,omitempty"`
	LogRates   []float64 `json:"log_rates,omitempty"`
	Variances  []float64 `json:"variances,omitempty"`
	Kept       []int     `json:"kept,omitempty"`
	Removed    []int     `json:"removed,omitempty"`
	Unresolved []int     `json:"unresolved,omitempty"`
}

// ComponentState is one component's learning state in a NodeEvent or stats
// response.
type ComponentState struct {
	Component  int `json:"component"`
	Snapshots  int `json:"snapshots"`
	StateEpoch int `json:"state_epoch"`
	// EpochLag is the component engine's own Snapshots − StateEpoch,
	// clamped non-negative (every snapshot while no state is built).
	EpochLag        int    `json:"epoch_lag"`
	Rebuilds        uint64 `json:"rebuilds"`
	ElimReuses      uint64 `json:"elim_reuses"`
	RebuildFailures uint64 `json:"rebuild_failures,omitempty"`
	// DeltaRebuilds and DirtyShards surface the component engine's
	// incremental Phase-1 telemetry: rebuilds that refolded only dirty pair
	// shards, and the shard work of the most recent rebuild.
	DeltaRebuilds uint64 `json:"delta_rebuilds,omitempty"`
	DirtyShards   int    `json:"dirty_shards,omitempty"`
	Degraded      bool   `json:"degraded,omitempty"`
	LastError     string `json:"last_error,omitempty"`
}

// NodeEvent is one NDJSON line of GET /cluster/v1/watch (and the body of
// GET /cluster/v1/stats, with type "stats"): the node's epoch state. The
// coordinator tails this stream per node to know when gathered state is
// fresh without polling; StateEpoch is the oldest component state the node
// serves (-1 before every component rebuilt once).
type NodeEvent struct {
	Type       string `json:"type"` // "epoch", "heartbeat" or "stats"
	NodeID     string `json:"node_id"`
	Assignment uint64 `json:"assignment"`
	Snapshots  int    `json:"snapshots"`
	StateEpoch int    `json:"state_epoch"`
	Degraded   bool   `json:"degraded"`
	// DirtyComponents counts this node's components with snapshots their
	// served state has not absorbed yet — the components the next rebuild
	// wave will actually rebuild; the rest will be skipped.
	DirtyComponents int              `json:"dirty_components,omitempty"`
	Components      []ComponentState `json:"components,omitempty"`
}

// ErrorResponse is the body of every non-2xx cluster-protocol response.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// Sentinel wire codes: component and protocol errors carry the lia sentinel
// identity across HTTP so the coordinator can rebuild errors.Is-compatible
// chains on its side.
const (
	codeTooFewSnapshots   = "too_few_snapshots"
	codeDimensionMismatch = "dimension_mismatch"
	codeRebuildFailed     = "rebuild_failed"
	codeUnidentifiable    = "unidentifiable"
	codeStaleAssignment   = "stale_assignment"
	codeNotAssigned       = "not_assigned"
)

// wireCode maps an error to its sentinel wire code ("" when none applies).
func wireCode(err error) string {
	switch {
	case errors.Is(err, lia.ErrTooFewSnapshots):
		return codeTooFewSnapshots
	case errors.Is(err, lia.ErrDimensionMismatch):
		return codeDimensionMismatch
	case errors.Is(err, lia.ErrRebuildFailed):
		return codeRebuildFailed
	case errors.Is(err, lia.ErrUnidentifiable):
		return codeUnidentifiable
	}
	return ""
}

// sentinelFor reverses wireCode.
func sentinelFor(code string) error {
	switch code {
	case codeTooFewSnapshots, codeNotAssigned:
		// An unassigned node is a fleet that has not warmed up yet: callers
		// should retry after placement, exactly like pre-learning queries.
		return lia.ErrTooFewSnapshots
	case codeDimensionMismatch:
		return lia.ErrDimensionMismatch
	case codeRebuildFailed:
		return lia.ErrRebuildFailed
	case codeUnidentifiable:
		return lia.ErrUnidentifiable
	}
	return nil
}

// wireError is a remote error rebuilt on the coordinator side with its
// sentinel identity intact.
type wireError struct {
	msg      string
	sentinel error
}

func (e *wireError) Error() string { return e.msg }
func (e *wireError) Unwrap() error { return e.sentinel }

// decodeError rebuilds a remote error from its wire form; nil when the wire
// carried no error.
func decodeError(msg, code string) error {
	if msg == "" {
		return nil
	}
	return &wireError{msg: msg, sentinel: sentinelFor(code)}
}
