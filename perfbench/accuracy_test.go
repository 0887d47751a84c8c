package main

import (
	"errors"
	"testing"
)

// Three virtual links over physical links 10, 11, 12 and 13; link 2 is the
// chain 12-13. Threshold 0.01.
func TestAccuracyFromWorldTruth(t *testing.T) {
	members := [][]int{{10}, {11}, {12, 13}}
	linkIndex := map[int]int{10: 0, 11: 1, 12: 2, 13: 3}
	var a accuracy
	// Tick 1: link 0 lossy; the chain's two 0.6% losses compound to
	// 1.196% > 1%, so link 2 is truly congested too. The engine flags
	// links 0 and 1: one hit, one false positive, one miss.
	a.add([]bool{true, true, false}, members, []float64{0.05, 0, 0.006, 0.006}, linkIndex, 0.01)
	// Tick 2: nothing is congested and nothing is flagged.
	a.add([]bool{false, false, false}, members, []float64{0.001, 0, 0, 0.009}, linkIndex, 0.01)
	// Tick 3: link 1 congested and flagged.
	a.add([]bool{false, true, false}, members, []float64{0, 0.2, 0, 0}, linkIndex, 0.01)

	dr, err := a.detectRate()
	if err != nil {
		t.Fatal(err)
	}
	// F = {t1:0, t1:2, t3:1}, X = {t1:0, t1:1, t3:1}.
	if want := 2.0 / 3; dr != want {
		t.Errorf("DR %v, want %v", dr, want)
	}
	if fpr, want := a.falsePosRate(), 1.0/3; fpr != want {
		t.Errorf("FPR %v, want %v", fpr, want)
	}
}

func TestAccuracyWithoutTruth(t *testing.T) {
	var a accuracy
	a.add([]bool{false}, [][]int{{1}}, []float64{0}, map[int]int{1: 0}, 0.01)
	if _, err := a.detectRate(); !errors.Is(err, errNoTruth) {
		t.Errorf("DR over no congested link: %v, want errNoTruth", err)
	}
	if fpr := a.falsePosRate(); fpr != 0 {
		t.Errorf("FPR with nothing flagged %v, want 0", fpr)
	}
}
