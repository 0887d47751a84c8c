package main

import (
	"encoding/gob"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"time"

	"lia"
	"lia/internal/topogen"
	"lia/wal"
	"lia/world"
)

// probes is the per-path probe count behind every received fraction: the
// world samples Binomial(probes, p) and the server converts with the same S.
const probes = 1000

// Input sizing. The snapshot pool is cycled by the writer; the held-out block
// follows it in world time and is only ever used for the accuracy check.
const (
	poolTicks = 512
	heldTicks = 64
	window    = 64 // WithWindow for the windowed workloads
)

// spec is one workload: a topology shape, the engine stack serving it, and
// the fixed open-loop rates the generator drives it at.
type spec struct {
	name string
	why  string

	domains  int // link-disjoint trees in the routing matrix
	perTree  int // paths per tree
	treeSize int // nodes topogen draws per tree (grown until enough hosts)
	branch   int // topogen max branching factor

	window  int  // WithWindow (0 = cumulative moments)
	normal  bool // WithVarianceMethod(VarianceNormalEquations)
	durable bool // WithDurability with interval fsync and count checkpoints
	fleet   bool // serve a cluster.Fleet of two in-process nodes

	// checkpointEvery is the durable workload's checkpoint period in
	// snapshots. Runs end on a pool-cycle boundary (a multiple of 512
	// snapshots); 3000 shares no multiple with 512 below 192000, so the
	// state directory always ends with a non-empty WAL tail.
	checkpointEvery int

	batch     int     // snapshots per ingest request
	snapsPerS float64 // open-loop ingest rate, snapshots/s
	linksPerS float64 // open-loop GET /v1/links rate
	inferPerS float64 // open-loop POST /v1/infer rate
}

// batchesPerS is the open-loop ingest request rate.
func (s spec) batchesPerS() float64 { return s.snapsPerS / float64(s.batch) }

// workloads are the benchmark's fixed workloads. Their rates are committed
// here and never calibrated per run; BENCHMARK.json repeats them.
var workloads = []spec{
	{
		name:    "tree100",
		why:     "one 100-path tree, cumulative moments, normal equations: every epoch pays a full Phase-1 right-hand-side fold, a solve and a Phase-2 elimination",
		domains: 1, perTree: 100, treeSize: 260, branch: 6,
		normal: true,
		batch:  8, snapsPerS: 320, linksPerS: 15, inferPerS: 15,
	},
	{
		name:    "domains24-wal",
		why:     "24 link-disjoint 25-path trees, window 64, normal equations, WAL: write-heavy, so decode, log conversion, scatter, windowed fold and WAL append dominate",
		domains: 24, perTree: 25, treeSize: 100, branch: 4,
		window: window, normal: true, durable: true, checkpointEvery: 3000,
		batch: 8, snapsPerS: 1000, linksPerS: 15, inferPerS: 15,
	},
	{
		name:    "fleet2",
		why:     "the domains24 topology behind a cluster.Fleet of two nodes, window 64: every read gathers over two HTTP hops and every write rides the scatter streams",
		domains: 24, perTree: 25, treeSize: 100, branch: 4,
		window: window, fleet: true,
		batch: 8, snapsPerS: 320, linksPerS: 6, inferPerS: 6,
	},
}

func lookupSpec(name string) (spec, error) {
	for _, s := range workloads {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// engineOptions are the lia options of the engine under test, minus
// durability (the reference engines share them).
func (s spec) engineOptions() []lia.Option {
	var opts []lia.Option
	if s.window > 0 {
		opts = append(opts, lia.WithWindow(s.window))
	}
	if s.normal {
		// At these component sizes VarianceAuto picks dense QR, which has
		// no cached factor or incremental path; the normal equations are
		// what a long-running deployment resolves to at scale.
		opts = append(opts, lia.WithVarianceMethod(lia.VarianceNormalEquations))
	}
	return opts
}

// durability is the WAL and checkpoint policy of the durable workload:
// interval fsync and count-based checkpoints.
func (s spec) durability() lia.DurabilityOptions {
	return lia.DurabilityOptions{
		CheckpointEvery: s.checkpointEvery,
		Fsync:           wal.SyncInterval,
		FsyncInterval:   100 * time.Millisecond,
	}
}

// inputs is everything a run feeds the system, generated once per
// (workload, seed) and cached: the topology, the snapshot pool the writer
// cycles, and a held-out block with its per-link ground truth.
type inputs struct {
	Paths    []lia.Path
	LinkIDs  []int       // world link order of HeldLoss
	Pool     [][]float64 // received fractions, one row per tick
	Held     [][]float64
	HeldLoss [][]float64 // realised per-physical-link loss of each held tick
	Events   int
}

// cacheVersion changes whenever generation changes, so stale caches are
// never read.
const cacheVersion = 4

// loadInputs returns the cached inputs of (s, seed), generating and caching
// them on a miss. A cache that cannot be written is not an error.
func loadInputs(dir string, s spec, seed uint64) (*inputs, error) {
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-v%d.gob", s.name, seed, cacheVersion))
	if f, err := os.Open(path); err == nil {
		defer f.Close()
		var in inputs
		if err := gob.NewDecoder(f).Decode(&in); err == nil {
			return &in, nil
		}
	}
	in, err := generate(s, seed)
	if err != nil {
		return nil, err
	}
	if err := writeCache(dir, path, in); err != nil {
		logf("input cache not written: %v", err)
	}
	return in, nil
}

func writeCache(dir, path string, in *inputs) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, "inputs-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := gob.NewEncoder(tmp).Encode(in); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// topologySeed draws every workload's topology. The seed varies the
// traffic, not the network: across topogen seeds the single tree's rebuild
// cost varied by ±25%, across world seeds on one tree by ±5%, so a
// per-seed topology would bury a change's effect in the spread between
// networks.
const topologySeed = 1

// generate builds the workload's topology and, from seed, its congestion
// schedule and world stream.
func generate(s spec, seed uint64) (*inputs, error) {
	paths, err := buildPaths(s, topologySeed)
	if err != nil {
		return nil, err
	}
	routes := make([][]int, len(paths))
	for i, p := range paths {
		routes[i] = p.Links
	}
	schedule := events(routes, seed)
	w, err := world.New(routes, world.Config{Seed: seed, Probes: probes}, schedule)
	if err != nil {
		return nil, fmt.Errorf("world: %w", err)
	}
	in := &inputs{Paths: paths, LinkIDs: w.LinkIDs(), Events: len(schedule)}
	for t := 0; t < poolTicks+heldTicks; t++ {
		tick := w.Step()
		frac := append([]float64(nil), tick.Frac...)
		if t < poolTicks {
			in.Pool = append(in.Pool, frac)
			continue
		}
		in.Held = append(in.Held, frac)
		in.HeldLoss = append(in.HeldLoss, append([]float64(nil), tick.Loss...))
	}
	return in, nil
}

// buildPaths draws s.domains link-disjoint topogen trees of s.perTree paths
// each. Every tree gets its own link-ID range and a root uplink shared by
// all its paths (without it the root's subtrees would share no link), so
// the routing matrix splits into exactly s.domains components.
func buildPaths(s spec, seed uint64) ([]lia.Path, error) {
	var paths []lia.Path
	for d := 0; d < s.domains; d++ {
		rng := rand.New(rand.NewPCG(seed, uint64(d)))
		var net *topogen.Network
		for nodes := s.treeSize; ; nodes += s.treeSize / 4 {
			if nodes > 8*s.treeSize {
				return nil, fmt.Errorf("domain %d: no tree with %d hosts", d, s.perTree)
			}
			net = topogen.Tree(rng, nodes, s.branch)
			if len(net.Hosts) >= s.perTree {
				break
			}
		}
		base := d * 10_000_000
		routes := topogen.Routes(net, []int{0}, net.Hosts[:s.perTree])
		for _, p := range routes {
			links := make([]int, 0, len(p.Links)+1)
			links = append(links, base)
			for _, l := range p.Links {
				links = append(links, base+1+l)
			}
			paths = append(paths, lia.Path{Beacon: p.Beacon + base, Dst: p.Dst + 1 + base, Links: links})
		}
	}
	return paths, nil
}

// eventShare is the fraction of physical links given a congest or flap
// episode. Without events the world's default utilisation stays below
// capacity and there is no loss to find.
const eventShare = 0.07

// events schedules seeded congest/flap episodes on eventShare of the links,
// each active for a quarter to a half of the generated horizon.
func events(routes [][]int, seed uint64) []world.Event {
	seen := map[int]bool{}
	var links []int
	for _, r := range routes {
		for _, l := range r {
			if !seen[l] {
				seen[l] = true
				links = append(links, l)
			}
		}
	}
	sort.Ints(links)
	rng := rand.New(rand.NewPCG(seed, 0xe7e27))
	horizon := poolTicks + heldTicks
	n := int(eventShare*float64(len(links)) + 0.5)
	if n < 1 {
		n = 1
	}
	var out []world.Event
	for _, i := range rng.Perm(len(links))[:n] {
		start := rng.IntN(poolTicks / 2)
		ev := world.Event{Tick: start, Duration: horizon - start, Links: []int{links[i]}}
		if rng.IntN(2) == 0 {
			ev.Kind, ev.Factor = world.KindCongest, 2
		} else {
			ev.Kind, ev.Period, ev.Loss = world.KindFlap, 16, 0.1
		}
		out = append(out, ev)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Tick < out[j].Tick })
	return out
}
