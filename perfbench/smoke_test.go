package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSmoke drives every workload for two seconds at a quarter of its
// rates, untraced and traced, and requires the parity gate to have
// compared the served answers with the reference.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real servers for several seconds")
	}
	cache := t.TempDir()
	for _, full := range workloads {
		t.Run(full.name, func(t *testing.T) {
			s := full
			s.snapsPerS /= 4
			s.linksPerS /= 4
			s.inferPerS /= 4
			if s.durable {
				s.checkpointEvery = 300 // a checkpoint within the short run
			}
			cfg := config{workload: s.name, seed: 3, cache: cache, out: t.TempDir()}
			in, err := loadInputs(cache, s, cfg.seed)
			if err != nil {
				t.Fatal(err)
			}
			b, err := buildBodies(s, in)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			var runs []*measurement
			for _, traced := range []bool{false, true} {
				m, err := measure(ctx, cfg, s, in, b, 2*time.Second, traced)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if m.checked == 0 {
					t.Fatalf("traced=%v: parity gate compared nothing", traced)
				}
				if n := m.d.failed.Load(); n != 0 {
					t.Errorf("traced=%v: %d of %d requests failed", traced, n, m.d.attempted.Load())
				}
				runs = append(runs, m)
			}
			if s.durable && len(runs[0].recover) != recoverReps {
				t.Errorf("%d recoveries timed, want %d", len(runs[0].recover), recoverReps)
			}
			res, table := runs[1].perLayer(s, runs[0])
			for _, want := range []string{"ingest", "links", "infer", "unattributed"} {
				if !strings.Contains(table, want) {
					t.Errorf("layer table lacks %q:\n%s", want, table)
				}
			}
			if len(res.Metrics) == 0 {
				t.Error("traced run reported no per-layer metrics")
			}
			if err := writeTrace(cfg, runs[1], table); err != nil {
				t.Fatal(err)
			}
			if fi, err := os.Stat(filepath.Join(cfg.out, s.name+"-seed3.spans.jsonl")); err != nil || fi.Size() == 0 {
				t.Errorf("span file: %v", err)
			}
		})
	}
}
