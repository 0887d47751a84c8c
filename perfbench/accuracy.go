package main

import "errors"

// errNoTruth reports a held-out block without a single truly congested link,
// on which a detection rate is undefined.
var errNoTruth = errors.New("held-out block has no congested link")

// accuracy tallies the paper's detection and false-positive rates over
// (tick, virtual link) pairs: F is the set of truly congested links, X the
// set the engine flagged, DR = |F ∩ X| / |F| and FPR = |X \ F| / |X|.
type accuracy struct {
	truth, flagged, hit int
}

// add scores one tick. flagged[k] is the served congested flag of virtual
// link k, members[k] its physical links, loss the tick's realised loss per
// physical link (indexed through linkIndex) and tl the congestion threshold.
// A virtual link is truly congested when the loss of its member chain,
// 1 − Π(1 − loss), exceeds tl.
func (a *accuracy) add(flagged []bool, members [][]int, loss []float64, linkIndex map[int]int, tl float64) {
	for k, f := range flagged {
		pass := 1.0
		for _, m := range members[k] {
			pass *= 1 - loss[linkIndex[m]]
		}
		truth := 1-pass > tl
		if truth {
			a.truth++
		}
		if f {
			a.flagged++
			if truth {
				a.hit++
			}
		}
	}
}

// detectRate is DR; it errors when no link was truly congested.
func (a *accuracy) detectRate() (float64, error) {
	if a.truth == 0 {
		return 0, errNoTruth
	}
	return float64(a.hit) / float64(a.truth), nil
}

// falsePosRate is FPR; 0 when nothing was flagged.
func (a *accuracy) falsePosRate() float64 {
	if a.flagged == 0 {
		return 0
	}
	return float64(a.flagged-a.hit) / float64(a.flagged)
}
