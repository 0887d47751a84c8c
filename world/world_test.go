package world

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"lia/internal/fingerprint"
)

// startServer spins up a listening server on a loopback port.
func startServer(t *testing.T, cfg ServerConfig) *Server {
	t.Helper()
	s := NewServer(cfg)
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// rawConn speaks the protocol by hand so tests can hash the exact bytes the
// server emits (Client would decode them).
type rawConn struct {
	t    *testing.T
	conn net.Conn
	r    *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawConn{t: t, conn: conn, r: bufio.NewReader(conn)}
}

func (rc *rawConn) send(line string) {
	rc.t.Helper()
	if _, err := rc.conn.Write([]byte(line + "\n")); err != nil {
		rc.t.Fatalf("write: %v", err)
	}
}

func (rc *rawConn) readLine() string {
	rc.t.Helper()
	line, err := rc.r.ReadString('\n')
	if err != nil {
		rc.t.Fatalf("read: %v", err)
	}
	return strings.TrimSuffix(line, "\n")
}

// mustOK decodes a response line and fails the test on a protocol error.
func (rc *rawConn) mustOK(line string) response {
	rc.t.Helper()
	var resp response
	if err := json.Unmarshal([]byte(line), &resp); err != nil {
		rc.t.Fatalf("decode %q: %v", line, err)
	}
	if !resp.OK {
		rc.t.Fatalf("server error: %s", resp.Error)
	}
	return resp
}

var testPaths = [][]int{{1, 4}, {1, 5}, {2, 6}, {2, 7}, {3, 8}, {3, 9}}

// streamHash pulls `ticks` snapshots in the given batch pattern, scheduling
// a congest shift and a reroute (topology churn) mid-run, and returns the
// SHA-256 of the raw NDJSON snapshot lines. Two runs with the same seed
// must produce identical hashes regardless of the batch pattern.
func streamHash(t *testing.T, seed uint64, ticks int, batches []int) [sha256.Size]byte {
	t.Helper()
	s := startServer(t, ServerConfig{
		World: Config{Seed: seed, Probes: 200, DiurnalPeriod: 50},
		// Schedule the churn up front so the link set is stable and the
		// stream is a pure function of (seed, schedule, pull count).
		Schedule: []Event{
			{Kind: KindCongest, Tick: 20, Duration: 30, Links: []int{1, 2}, Factor: 6},
			{Kind: KindReroute, Tick: 40, Reroutes: []Reroute{{Path: 0, Links: []int{1, 42}}}},
		},
	})
	rc := dialRaw(t, s.Addr())
	pathsJSON, _ := json.Marshal(testPaths)
	rc.send(fmt.Sprintf(`{"op":"assign","paths":%s}`, pathsJSON))
	rc.mustOK(rc.readLine())

	h := sha256.New()
	got, bi := 0, 0
	for got < ticks {
		n := batches[bi%len(batches)]
		bi++
		if n > ticks-got {
			n = ticks - got
		}
		rc.send(fmt.Sprintf(`{"op":"next","count":%d}`, n))
		rc.mustOK(rc.readLine())
		for i := 0; i < n; i++ {
			h.Write([]byte(rc.readLine()))
			h.Write([]byte{'\n'})
		}
		got += n
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// TestStreamDeterminism is the tentpole contract: same seed + same schedule
// (including mid-run topology churn) => bitwise-identical NDJSON stream,
// independent of how the consumer batches its pulls.
func TestStreamDeterminism(t *testing.T) {
	a := streamHash(t, 77, 120, []int{16})
	b := streamHash(t, 77, 120, []int{16})
	if a != b {
		t.Fatalf("same seed, same batching: hashes differ\n a=%x\n b=%x", a, b)
	}
	c := streamHash(t, 77, 120, []int{1, 7, 31})
	if a != c {
		t.Fatalf("same seed, different batching: hashes differ\n a=%x\n c=%x", a, c)
	}
	d := streamHash(t, 78, 120, []int{16})
	if a == d {
		t.Fatalf("different seeds produced identical streams (hash %x)", a)
	}
}

// update rewrites the pinned fingerprint (go test -run Fingerprint -update).
var update = flag.Bool("update", false, "rewrite the pinned fingerprint")

// TestWorldFingerprint pins a stable stream digest
// (testdata/stream.fingerprint); CI's scale job also runs it at
// GOMAXPROCS=1,2,4 and diffs the logged fingerprints.
func TestWorldFingerprint(t *testing.T) {
	fp := fmt.Sprintf("%x", streamHash(t, 1907, 200, []int{13}))
	t.Logf("fingerprint=%s", fp)
	fingerprint.Check(t, "stream", fp, *update)
}

func TestEventValidate(t *testing.T) {
	cases := []struct {
		name string
		ev   Event
		ok   bool
	}{
		{"congest defaults", Event{Kind: KindCongest, Links: []int{1}}, true},
		{"congest no links", Event{Kind: KindCongest}, false},
		{"congest negative factor", Event{Kind: KindCongest, Links: []int{1}, Factor: -2}, false},
		{"flap defaults", Event{Kind: KindFlap, Links: []int{1}}, true},
		{"flap loss out of range", Event{Kind: KindFlap, Links: []int{1}, Loss: 1.5}, false},
		{"reroute ok", Event{Kind: KindReroute, Reroutes: []Reroute{{Path: 0, Links: []int{9}}}}, true},
		{"reroute bad path", Event{Kind: KindReroute, Reroutes: []Reroute{{Path: 6, Links: []int{9}}}}, false},
		{"reroute empty route", Event{Kind: KindReroute, Reroutes: []Reroute{{Path: 0}}}, false},
		{"unknown kind", Event{Kind: "quench", Links: []int{1}}, false},
		{"negative tick", Event{Kind: KindCongest, Links: []int{1}, Tick: -1}, false},
	}
	for _, tc := range cases {
		err := tc.ev.validate(6)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: expected an error", tc.name)
		}
	}
	ev := Event{Kind: KindFlap, Links: []int{1}}
	if err := ev.validate(6); err != nil {
		t.Fatal(err)
	}
	if ev.Period != 8 || ev.Loss != 0.3 {
		t.Fatalf("flap defaults not applied: period=%d loss=%g", ev.Period, ev.Loss)
	}
}

// TestCongestCorrelates checks that a congest event drives the loss of its
// link group up together: the regime truth is positive for every affected
// link while the event is active and returns to its pre-event level after.
func TestCongestCorrelates(t *testing.T) {
	w, err := New(testPaths, Config{Seed: 5}, []Event{
		{Kind: KindCongest, Tick: 10, Duration: 10, Links: []int{1, 2}, Factor: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	idx := map[int]int{}
	for i, id := range w.LinkIDs() {
		idx[id] = i
	}
	for tick := 0; tick < 30; tick++ {
		tk := w.Step()
		inEvent := tick >= 10 && tick < 20
		for _, id := range []int{1, 2} {
			r := tk.Regime[idx[id]]
			if inEvent && r <= 0 {
				t.Fatalf("tick %d: link %d regime %g, want > 0 under 8x congest", tick, id, r)
			}
			if !inEvent && r != 0 {
				t.Fatalf("tick %d: link %d regime %g, want 0 outside event", tick, id, r)
			}
		}
		// An unaffected link stays at its baseline regime.
		if r := tk.Regime[idx[9]]; r != 0 {
			t.Fatalf("tick %d: untouched link 9 regime %g, want 0", tick, r)
		}
	}
}

// TestFlapPhases checks the lossy/healthy alternation and the duty-cycle
// regime mean.
func TestFlapPhases(t *testing.T) {
	w, err := New(testPaths, Config{Seed: 5}, []Event{
		{Kind: KindFlap, Tick: 0, Links: []int{4}, Period: 4, Loss: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	idx := map[int]int{}
	for i, id := range w.LinkIDs() {
		idx[id] = i
	}
	wantDuty := 0.5 * 2 / 4 // Loss * ceil(P/2)/P
	for tick := 0; tick < 16; tick++ {
		tk := w.Step()
		loss := tk.Loss[idx[4]]
		if tick%4 < 2 {
			if loss != 0.5 {
				t.Fatalf("tick %d: lossy phase loss %g, want 0.5", tick, loss)
			}
		} else if loss != 0 {
			t.Fatalf("tick %d: healthy phase loss %g, want 0 at base utilisation", tick, loss)
		}
		if got := tk.Regime[idx[4]]; math.Abs(got-wantDuty) > 1e-12 {
			t.Fatalf("tick %d: regime %g, want duty mean %g", tick, got, wantDuty)
		}
	}
}

// TestReroute checks that churn switches the path's loss dependence to the
// new links and that past events are rejected.
func TestReroute(t *testing.T) {
	w, err := New(testPaths, Config{Seed: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.ScheduleEvent(Event{
		Kind: KindReroute, Tick: 5,
		Reroutes: []Reroute{{Path: 0, Links: []int{2, 99}}},
	}); err != nil {
		t.Fatal(err)
	}
	// The reroute target is materialised immediately.
	found := false
	for _, id := range w.LinkIDs() {
		if id == 99 {
			found = true
		}
	}
	if !found {
		t.Fatalf("link 99 not materialised at schedule time; LinkIDs=%v", w.LinkIDs())
	}
	if err := w.ScheduleEvent(Event{Kind: KindFlap, Tick: 6, Links: []int{99}, Loss: 0.9, Period: 2}); err != nil {
		t.Fatal(err)
	}
	idx := map[int]int{}
	for i, id := range w.LinkIDs() {
		idx[id] = i
	}
	for tick := 0; tick < 10; tick++ {
		tk := w.Step()
		if tick == 6 { // flap lossy phase on the post-reroute link 99
			want := (1 - tk.Loss[idx[2]]) * (1 - tk.Loss[idx[99]])
			if math.Abs(tk.Frac[0]-want) > 1e-12 {
				t.Fatalf("tick %d: path 0 frac %g, want %g from rerouted links", tick, tk.Frac[0], want)
			}
			if tk.Frac[0] > 0.2 {
				t.Fatalf("tick %d: path 0 frac %g, want heavy loss through flapping link 99", tick, tk.Frac[0])
			}
		}
	}
	// The world is at tick 10 now; scheduling into the past must fail.
	if err := w.ScheduleEvent(Event{Kind: KindCongest, Tick: 3, Links: []int{1}}); err == nil {
		t.Fatal("scheduling an event in the past succeeded")
	}
}

// TestServerAttachAndConflict checks create-or-attach semantics and the
// conflicting-paths error.
func TestServerAttachAndConflict(t *testing.T) {
	s := startServer(t, ServerConfig{World: Config{Seed: 9}})
	c1, err := Dial(s.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	info, err := c1.Assign("soak", testPaths, 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.Paths != len(testPaths) || info.Tick != 0 {
		t.Fatalf("fresh assign: paths=%d tick=%d", info.Paths, info.Tick)
	}
	if _, _, err := c1.Next("soak", 7); err != nil {
		t.Fatal(err)
	}

	// A second connection re-attaches at the current tick.
	c2, err := Dial(s.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	info2, err := c2.Assign("soak", testPaths, 0)
	if err != nil {
		t.Fatal(err)
	}
	if info2.Tick != 7 {
		t.Fatalf("re-attach tick = %d, want 7", info2.Tick)
	}
	// Different paths under the same name conflict, and the connection
	// stays usable afterwards.
	if _, err := c2.Assign("soak", [][]int{{1, 2}}, 0); err == nil {
		t.Fatal("conflicting assign succeeded")
	}
	st, err := c2.Stats("soak")
	if err != nil {
		t.Fatalf("stats after error: %v", err)
	}
	if st.Tick != 7 || st.Served != 7 {
		t.Fatalf("stats = %+v, want tick 7 served 7", st)
	}
	// Unknown scenario errors.
	if _, _, err := c2.Next("nope", 1); err == nil {
		t.Fatal("next on unknown scenario succeeded")
	}
}

// TestClientShiftAndTruth drives the control surface end to end.
func TestClientShiftAndTruth(t *testing.T) {
	s := startServer(t, ServerConfig{World: Config{Seed: 3}})
	c, err := Dial(s.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Assign("", testPaths, 100); err != nil {
		t.Fatal(err)
	}
	// Truth before the first snapshot reports tick −1.
	tr, err := c.Truth("")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Tick != -1 || tr.Loss != nil {
		t.Fatalf("pre-step truth = %+v, want tick −1 and no loss", tr)
	}
	if err := c.Shift("", Event{Kind: KindCongest, Tick: 2, Links: []int{1, 2, 3}, Factor: 10}); err != nil {
		t.Fatal(err)
	}
	batch, tick, err := c.Next("", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 5 || tick != 5 {
		t.Fatalf("batch len %d tick %d, want 5 and 5", len(batch), tick)
	}
	for i, tk := range batch {
		if tk.Tick != i {
			t.Fatalf("batch[%d].Tick = %d", i, tk.Tick)
		}
		if len(tk.Frac) != len(testPaths) {
			t.Fatalf("batch[%d]: %d fracs, want %d", i, len(tk.Frac), len(testPaths))
		}
	}
	tr, err = c.Truth("")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Tick != 4 {
		t.Fatalf("truth tick %d, want 4", tr.Tick)
	}
	// The 10x congest on links 1..3 is active from tick 2 on: ground-truth
	// regime must be positive for an affected link.
	idx := map[int]int{}
	for i, id := range tr.LinkIDs {
		idx[id] = i
	}
	if r := tr.Regime[idx[1]]; r <= 0 {
		t.Fatalf("regime for congested link 1 = %g, want > 0", r)
	}
	// Scheduling into the past through the protocol fails cleanly.
	if err := c.Shift("", Event{Kind: KindFlap, Tick: 1, Links: []int{4}}); err == nil {
		t.Fatal("past shift succeeded")
	}
}

// TestQueueAbsorbsTransients: with a roomy queue, a brief overload spike
// causes no loss (the buffer soaks it up), while sustained overload must
// eventually drop — the capacity/queue semantics the model advertises.
func TestQueueAbsorbsTransients(t *testing.T) {
	paths := [][]int{{1}}
	// Deterministic load (no jitter is impossible since 0 means default;
	// use a tiny value), base utilisation 0.5, queue of 2 ticks' capacity.
	cfg := Config{Seed: 1, Utilization: 0.5, UtilizationSpread: 1e-9, Jitter: 1e-9, Queue: 2}
	// A 2-tick 1.5x spike: offered 0.75 < capacity 1 — no overload at all.
	w, err := New(paths, cfg, []Event{
		{Kind: KindCongest, Tick: 5, Duration: 2, Links: []int{1}, Factor: 1.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	for tick := 0; tick < 10; tick++ {
		if tk := w.Step(); tk.Loss[0] != 0 {
			t.Fatalf("tick %d: loss %g under sub-capacity load", tick, tk.Loss[0])
		}
	}
	// Sustained 4x overload (offered ~2): the queue fills within ~2 ticks
	// and loss then approaches 1 − C/R = 0.5.
	w2, err := New(paths, cfg, []Event{
		{Kind: KindCongest, Tick: 0, Links: []int{1}, Factor: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for tick := 0; tick < 10; tick++ {
		last = w2.Step().Loss[0]
	}
	if math.Abs(last-0.5) > 0.05 {
		t.Fatalf("sustained 4x overload loss %g, want ≈ 1 − C/R = 0.5", last)
	}
}
