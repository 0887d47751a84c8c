// Command collector is the central measurement server: it accepts JSON-line
// reports from beacons and sinks over TCP and emits each completed snapshot
// (all paths reported) as a JSON line of received fractions on stdout.
// The output stream feeds directly into liainfer.
//
//	collector -listen 127.0.0.1:7000 -paths 6 -snapshots 5
package main

import (
	"context"
	"encoding/json"
	"flag"
	"log"
	"math"
	"os"
	"time"

	"lia/internal/emunet"
)

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:7000", "TCP address to accept reports on")
		paths     = flag.Int("paths", 0, "number of paths per snapshot (required)")
		snapshots = flag.Int("snapshots", 1, "snapshots to wait for before exiting")
		timeout   = flag.Duration("timeout", 2*time.Minute, "per-snapshot completion timeout")
		settle    = flag.Duration("settle", 1500*time.Millisecond, "extra wait after completion so sink reports merge in")
	)
	flag.Parse()
	if *paths <= 0 {
		log.Fatal("collector: -paths is required")
	}
	coll, err := emunet.NewCollectorAddr(*listen)
	if err != nil {
		log.Fatalf("collector: %v", err)
	}
	defer coll.Close()
	log.Printf("collector: listening on %s for %d paths × %d snapshots", coll.Addr(), *paths, *snapshots)

	enc := json.NewEncoder(os.Stdout)
	for snap := 0; snap < *snapshots; snap++ {
		// The settle wait runs after completion, so it gets its own budget
		// on top of the completion timeout (as the old WaitSnapshot + Sleep
		// sequence behaved).
		ctx, cancel := context.WithTimeout(context.Background(), *timeout+*settle)
		frac, err := coll.AwaitSnapshot(ctx, snap, *paths, *settle)
		cancel()
		if err != nil {
			log.Fatalf("collector: %v", err)
		}
		if missing := missingPaths(frac); len(missing) > 0 {
			log.Printf("collector: snapshot %d skipped: no sink report from paths %v by the timeout", snap, missing)
			continue
		}
		if err := enc.Encode(map[string]interface{}{"snapshot": snap, "frac": frac}); err != nil {
			log.Fatalf("collector: %v", err)
		}
		log.Printf("collector: snapshot %d complete", snap)
	}
}

// missingPaths lists the paths AwaitSnapshot returned as missing (NaN).
func missingPaths(frac []float64) []int {
	var out []int
	for p, f := range frac {
		if math.IsNaN(f) {
			out = append(out, p)
		}
	}
	return out
}
