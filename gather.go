package lia

import (
	"context"
	"errors"
	"sort"
)

// The gather core: how per-component answers become one global answer. It is
// shared by every engine that splits a topology into link-connected
// components — ShardedEngine in-process over its components, cluster.Fleet
// over its nodes' engines — so both assemble results, steady states and
// stats through the same code.
//
// Phase 1's moment system and Phase 2's elimination never couple paths that
// share no link, so a component's answer remapped into global link order is
// bitwise what one solver over the whole topology returns. A component that
// failed degrades only its own links: they read zero, join neither Kept nor
// Removed and are listed in Unresolved.

// GatherResult assembles per-component Phase-2 results into global link
// order. links[c] maps component c's local virtual links to global ones;
// parts[c] is its result, nil when errs[c] is non-nil. A part may itself be
// a gather (a cluster node's engine over several components): its own
// Unresolved links map through links[c] like its Kept and Removed, so
// gathers compose. Kept, Removed and Unresolved come back sorted, and Epoch
// is the oldest healthy part's.
//
// Caller cancellation always wins, and only a gather in which every
// component failed returns an error (the joined one, so sentinels such as
// ErrTooFewSnapshots survive errors.Is).
func GatherResult(ctx context.Context, numLinks int, links [][]int, parts []*Result, errs []error) (*Result, error) {
	if err := gatherErr(ctx, errs); err != nil {
		return nil, err
	}
	out := &Result{
		LossRates: make([]float64, numLinks),
		LogRates:  make([]float64, numLinks),
		Variances: make([]float64, numLinks),
	}
	out.Kept, out.Removed, out.Unresolved, out.Epoch = assemble(links, errs, func(c int) ([]int, []int, []int, int) {
		res := parts[c]
		for kl, kg := range links[c] {
			out.LossRates[kg] = res.LossRates[kl]
			out.LogRates[kg] = res.LogRates[kl]
			out.Variances[kg] = res.Variances[kl]
		}
		return res.Kept, res.Removed, res.Unresolved, res.Epoch
	})
	return out, nil
}

// GatherSteady assembles per-component steady states into global link
// order, with the same contract as GatherResult.
func GatherSteady(ctx context.Context, numLinks int, links [][]int, parts []*SteadyState, errs []error) (*SteadyState, error) {
	if err := gatherErr(ctx, errs); err != nil {
		return nil, err
	}
	out := &SteadyState{Variances: make([]float64, numLinks)}
	out.Kept, out.Removed, out.Unresolved, out.Epoch = assemble(links, errs, func(c int) ([]int, []int, []int, int) {
		st := parts[c]
		for kl, kg := range links[c] {
			out.Variances[kg] = st.Variances[kl]
		}
		return st.Kept, st.Removed, st.Unresolved, st.Epoch
	})
	return out, nil
}

// gatherErr decides the fate of a gather from its per-component errors:
// caller cancellation always propagates, and a gather where every component
// failed has nothing to serve, so the joined error surfaces (warm-up is
// synchronized across components, they all fail together). Any other mix
// degrades only the failing components' links.
func gatherErr(ctx context.Context, errs []error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err == nil {
			return nil
		}
	}
	return errors.Join(errs...)
}

// assemble walks the components once: put writes a healthy component's
// values into global order and returns its local Kept/Removed/Unresolved
// and epoch; a failed component's links all go to Unresolved. The link
// lists come back sorted and the epoch is the minimum over healthy
// components.
func assemble(links [][]int, errs []error, put func(c int) (kept, removed, unresolved []int, epoch int)) (kept, removed, unresolved []int, epoch int) {
	healthy := false
	for c, cl := range links {
		if errs[c] != nil {
			unresolved = append(unresolved, cl...)
			continue
		}
		k, r, u, e := put(c)
		for _, kl := range k {
			kept = append(kept, cl[kl])
		}
		for _, kl := range r {
			removed = append(removed, cl[kl])
		}
		for _, kl := range u {
			unresolved = append(unresolved, cl[kl])
		}
		if !healthy || e < epoch {
			epoch, healthy = e, true
		}
	}
	sort.Ints(kept)
	sort.Ints(removed)
	sort.Ints(unresolved)
	return kept, removed, unresolved, epoch
}

// GatherStats folds per-component stats into the fields every component
// gatherer reports alike: Snapshots as given, the summed Rebuilds,
// ElimReuses, RebuildFailures and DeltaRebuilds, DegradedComponents (by
// Stats.Unhealthy) and Degraded, the oldest StateEpoch (-1 while any
// component has none) and the non-negative EpochLag. Callers fill in the
// rest.
func GatherStats(snapshots int, comps []Stats) Stats {
	s := Stats{Snapshots: snapshots, StateEpoch: -1}
	for c, cs := range comps {
		s.Rebuilds += cs.Rebuilds
		s.ElimReuses += cs.ElimReuses
		s.RebuildFailures += cs.RebuildFailures
		s.DeltaRebuilds += cs.DeltaRebuilds
		if cs.Unhealthy() {
			s.DegradedComponents++
		}
		if c == 0 || cs.StateEpoch < s.StateEpoch {
			s.StateEpoch = cs.StateEpoch
		}
	}
	s.Degraded = s.DegradedComponents > 0
	s.EpochLag = epochLag(s.Snapshots, s.StateEpoch)
	return s
}

// Unhealthy classifies one component's stats for a gatherer's degradation
// surface: serving stale state after a failed rebuild (Degraded), or
// failing with nothing built yet (failures recorded, no state epoch).
func (s Stats) Unhealthy() bool {
	return s.Degraded || (s.StateEpoch < 0 && s.RebuildFailures > 0)
}

// epochLag is Snapshots − StateEpoch, clamped non-negative (the counters
// can race), or every snapshot before any state was built.
func epochLag(snapshots, stateEpoch int) int {
	if stateEpoch < 0 {
		return snapshots
	}
	return max(snapshots-stateEpoch, 0)
}
