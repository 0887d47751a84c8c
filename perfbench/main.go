// Command perfbench is the repository's end-to-end serving benchmark. It
// generates a seeded lia/world snapshot stream for one workload, starts the
// real serve.Server in-process on a loopback listener (for fleet2 also a
// cluster.Fleet coordinator and two cluster.Nodes), drives it from one
// writer and one reader connection, checks the served answers bitwise
// against an in-process reference engine, and prints one JSON result line.
// From the repository root:
//
//	bash perfbench/run.sh --workload tree100 --seed 1 --seconds 28 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// the run is repeated with every probe installed and the result carries the
// per-layer metrics, while a span file and a per-layer table are written
// under --out.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	cache    string
	out      string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: tree100, domains24-wal or fleet2")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: congestion events, world stream and request bodies")
	flag.IntVar(&cfg.seconds, "seconds", 28, "length of the timed window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs traced and reports per-layer metrics")
	flag.StringVar(&cfg.cache, "cache", filepath.Join(".bench_build", "cache"), "input cache directory")
	flag.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "out"), "directory for state, spans and layer tables")
	flag.Parse()
	cfg.trace = trace == 1
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || cfg.seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(context.Background(), cfg)
	if err != nil {
		logf("%s seed %d: %v", cfg.workload, cfg.seed, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		logf("encode result: %v", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one benchmark invocation.
func run(ctx context.Context, cfg config) (*result, error) {
	s, err := lookupSpec(cfg.workload)
	if err != nil {
		return nil, err
	}
	// Two passes of the window plus set-up and checks; a run that hangs
	// fails rather than outliving its caller's patience.
	ctx, cancel := context.WithTimeout(ctx, 2*time.Duration(cfg.seconds)*time.Second+100*time.Second)
	defer cancel()
	in, err := loadInputs(cfg.cache, s, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	b, err := buildBodies(s, in)
	if err != nil {
		return nil, fmt.Errorf("bodies: %w", err)
	}
	window := time.Duration(cfg.seconds) * time.Second
	plain, err := measure(ctx, cfg, s, in, b, window, false)
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		return plain.endToEnd()
	}
	traced, err := measure(ctx, cfg, s, in, b, window, true)
	if err != nil {
		return nil, err
	}
	res, table := traced.perLayer(s, plain)
	if err := writeTrace(cfg, traced, table); err != nil {
		return nil, err
	}
	fmt.Fprint(os.Stderr, table)
	return res, nil
}

// writeTrace writes the span file and the per-layer table under cfg.out.
func writeTrace(cfg config, m *measurement, table string) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	f, err := os.Create(stem + ".spans.jsonl")
	if err != nil {
		return err
	}
	if err := m.tr.writeSpans(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.WriteFile(stem+".layers.txt", []byte(table), 0o644)
}
