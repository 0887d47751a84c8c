// Command beacon is the end-host agent: it probes a set of paths through
// the emulated core (reporting sent counts to the collector) and can also
// serve as the destination-side sink (reporting received counts). A host
// that is both beacon and probing destination — as every PlanetLab node in
// the paper — runs one process with both flags.
//
//	beacon -core 127.0.0.1:9000 -collector 127.0.0.1:7000 \
//	       -paths 0,1,2 -S 1000 -snapshots 5 -gap 1ms -sink 127.0.0.1:9101
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"lia/internal/emunet"
)

func main() {
	var (
		coreAddr  = flag.String("core", "127.0.0.1:9000", "emulated core UDP address")
		collector = flag.String("collector", "", "collector TCP address (required)")
		pathsArg  = flag.String("paths", "", "comma-separated path IDs to probe")
		sinkAddr  = flag.String("sink", "", "also run a sink agent bound to this UDP address")
		probes    = flag.Int("S", 1000, "probes per path per snapshot")
		snapshots = flag.Int("snapshots", 1, "number of snapshots to probe")
		gap       = flag.Duration("gap", time.Millisecond, "inter-probe gap (paper: 10ms)")
		trace     = flag.Bool("traceroute", false, "run traceroute discovery over the probed paths first")
	)
	flag.Parse()
	if *collector == "" {
		fmt.Fprintln(os.Stderr, "beacon: -collector is required")
		os.Exit(2)
	}
	rc, err := emunet.DialCollector(*collector)
	if err != nil {
		log.Fatalf("beacon: %v", err)
	}
	defer rc.Close()

	var sink *emunet.Sink
	if *sinkAddr != "" {
		sink, err = emunet.NewSinkAddr(*sinkAddr)
		if err != nil {
			log.Fatalf("beacon: %v", err)
		}
		defer sink.Close()
		go reportLoop(sink, *collector, *probes)
		log.Printf("beacon: sink listening on %s", sink.Addr())
	}

	if *pathsArg == "" {
		// Pure sink mode: serve until interrupted.
		if sink == nil {
			fmt.Fprintln(os.Stderr, "beacon: need -paths and/or -sink")
			os.Exit(2)
		}
		select {}
	}
	var pathIDs []int
	for _, tok := range strings.Split(*pathsArg, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			log.Fatalf("beacon: bad path id %q", tok)
		}
		pathIDs = append(pathIDs, id)
	}

	b, err := emunet.NewBeacon(mustUDP(*coreAddr))
	if err != nil {
		log.Fatalf("beacon: %v", err)
	}
	defer b.Close()

	if *trace {
		tracer, err := emunet.NewTracer(mustUDP(*coreAddr), 2, 300*time.Millisecond)
		if err != nil {
			log.Fatalf("beacon: %v", err)
		}
		for _, id := range pathIDs {
			hops, err := tracer.TracePath(id, 64)
			if err != nil {
				log.Printf("beacon: trace path %d: %v", id, err)
				continue
			}
			var parts []string
			for _, h := range hops {
				if h.Responded {
					parts = append(parts, fmt.Sprintf("%d", h.Interface))
				} else {
					parts = append(parts, "*")
				}
			}
			log.Printf("beacon: path %d hops: %s", id, strings.Join(parts, " "))
		}
		tracer.Close()
	}

	for snap := 0; snap < *snapshots; snap++ {
		for _, id := range pathIDs {
			sent, err := b.ProbePath(id, snap, *probes, *gap)
			if err != nil {
				log.Fatalf("beacon: %v", err)
			}
			if err := rc.Send(emunet.Report{PathID: id, Snapshot: snap, Sent: sent}); err != nil {
				log.Fatalf("beacon: %v", err)
			}
		}
		log.Printf("beacon: snapshot %d done (%d paths × %d probes)", snap, len(pathIDs), *probes)
	}
	if sink != nil {
		// Give in-flight probes a moment, flush one last sink report.
		time.Sleep(200 * time.Millisecond)
		reportOnce(sink, rc)
	}
}

func mustUDP(addr string) *net.UDPAddr {
	a, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		log.Fatalf("beacon: resolve %q: %v", addr, err)
	}
	return a
}

// reportLoop periodically ships the sink's counters to the collector.
func reportLoop(sink *emunet.Sink, collector string, _ int) {
	for {
		time.Sleep(500 * time.Millisecond)
		rc, err := emunet.DialCollector(collector)
		if err != nil {
			continue
		}
		reportOnce(sink, rc)
		rc.Close()
	}
}

func reportOnce(sink *emunet.Sink, rc *emunet.ReportConn) {
	if err := sink.Report(rc); err != nil {
		log.Printf("beacon: sink report: %v", err)
	}
}
