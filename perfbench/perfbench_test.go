package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"slices"
	"testing"
	"time"

	"xcbc/pkg/xcbc"
)

// opSequence renders everything a workload sends for one seed.
func opSequence(t *testing.T, seed uint64) []byte {
	t.Helper()
	var cycles [][]request
	for _, s := range shapes(seed, streamShapes, 200) {
		cycles = append(cycles, deployCycle(s))
	}
	data, err := json.Marshal(map[string]any{
		"deploy":    cycles,
		"preload":   shapes(seed, streamPreload, readTenants*readDeployments),
		"campaigns": campaignStarts(seed, 64),
		"reads":     readMix(seed, 5000),
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestSameSeedSameOperations(t *testing.T) {
	a, b := opSequence(t, 7), opSequence(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("seed 7 produced two different operation sequences")
	}
	if bytes.Equal(a, opSequence(t, 8)) {
		t.Fatal("seeds 7 and 8 produced the same operation sequence")
	}
}

func TestShapesAreBalanced(t *testing.T) {
	space := len(shapeSpace())
	got := shapes(3, streamShapes, 2*space)
	count := map[string]int{}
	for _, s := range got {
		count[s.body()]++
	}
	if len(count) != space {
		t.Fatalf("two blocks cover %d distinct shapes, want %d", len(count), space)
	}
	for k, n := range count {
		if n != 2 {
			t.Fatalf("shape %s drawn %d times in two blocks, want 2", k, n)
		}
	}
}

// TestReadMixIsUniform checks that every route class is drawn with an
// equal share, within sampling noise.
func TestReadMixIsUniform(t *testing.T) {
	const n = 12000
	count := map[string]int{}
	for _, r := range readMix(5, n) {
		count[r.Class]++
	}
	if len(count) != len(readClasses) {
		t.Fatalf("%d classes drawn, want %d", len(count), len(readClasses))
	}
	want := n / len(readClasses)
	for class, got := range count {
		if got < want*9/10 || got > want*11/10 {
			t.Fatalf("class %s drawn %d times in %d, want about %d", class, got, n, want)
		}
	}
}

func TestScheduleMath(t *testing.T) {
	start := time.Unix(1000, 0)
	s := schedule{start: start, rate: 400}
	if got := s.count(10 * time.Second); got != 4000 {
		t.Fatalf("count(10s) at 400/s = %d, want 4000", got)
	}
	if got := s.due(0); !got.Equal(start) {
		t.Fatalf("due(0) = %v, want the start", got)
	}
	if got := s.due(400).Sub(start); got != time.Second {
		t.Fatalf("due(400) is %v after start, want 1s", got)
	}
	if got := s.due(3).Sub(s.due(2)); got != 2500*time.Microsecond {
		t.Fatalf("interval = %v, want 2.5ms", got)
	}
}

// TestOpenLoopChargesStalls sends to a handler that stalls once: the
// requests due during the stall must be charged the wait, measured from
// their due times, while the generator itself stays on schedule.
func TestOpenLoopChargesStalls(t *testing.T) {
	calls := 0
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls == 10 {
			time.Sleep(50 * time.Millisecond)
		}
		w.WriteHeader(http.StatusNoContent)
	})
	c := newInprocClient(h, nil)
	reqs := []request{{Method: "GET", Path: "/x", Class: "x"}}
	res := openLoop(c, reqs, 1000, time.Now(), 200*time.Millisecond, 1)
	if res.sent != 200 || len(res.failures) != 0 || res.latency.all().n() != 200 {
		t.Fatalf("sent %d, failed %d, timed %d; want 200, 0, 200", res.sent, len(res.failures), res.latency.all().n())
	}
	// The stall delays about 50 requests due 1ms apart behind it.
	if worst := res.latency.all().q(1); worst < 40 {
		t.Fatalf("worst latency %.1fms; a 50ms stall must be charged to the requests behind it", worst)
	}
	if n := res.latency.all(); n.q(0.5) >= 40 {
		t.Fatalf("median latency %.1fms; only requests behind the stall should wait", n.q(0.5))
	}
}

func TestBlockMeans(t *testing.T) {
	// Four blocks of 1s: two observations in the first, none in the
	// second, one in the third, three in the fourth (the last lands on
	// the phase's end and counts in the last block).
	var tm timed
	for _, o := range []struct {
		at time.Duration
		v  float64
	}{{0, 1}, {999 * time.Millisecond, 3}, {2500 * time.Millisecond, 10}, {3 * time.Second, 4}, {3500 * time.Millisecond, 5}, {4 * time.Second, 6}} {
		tm.add(o.at, o.v)
	}
	got := tm.blockMeans(4*time.Second, 4, nil)
	if want := []float64{2, 10, 5}; !slices.Equal(got.xs, want) {
		t.Fatalf("block means %v, want %v", got.xs, want)
	}
	// Two windows a block: half the third block's time was stolen, and a
	// quarter of the fourth's.
	stolen := tm.blockMeans(4*time.Second, 4, []float64{0, 0, 0, 0, 50, 50, 0, 50})
	if want := []float64{2, 5, 3.75}; !slices.Equal(stolen.xs, want) {
		t.Fatalf("steal-corrected block means %v, want %v", stolen.xs, want)
	}
	// One slow block out of three does not move the median.
	if got.median() != 5 {
		t.Fatalf("median of block means %v, want 5", got.median())
	}
}

// runChaos runs chaos-kickstart through the SDK on a fleet with the
// given name and returns its trace.
func runChaos(t *testing.T, fleetName string) []xcbc.TraceEvent {
	t.Helper()
	sc, err := xcbc.BuiltinScenario(chaosRun.name)
	if err != nil {
		t.Fatal(err)
	}
	spec := sc.FleetSpec()
	spec.Name = fleetName
	fl, err := xcbc.NewFleet(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fl.RunScenario(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace()
}

func TestTraceDigestCheck(t *testing.T) {
	good := runChaos(t, chaosRun.name)
	if err := verifyTrace(chaosRun, good); err != nil {
		t.Fatalf("the built-in's own trace fails its pinned digest: %v", err)
	}
	tampered := append([]xcbc.TraceEvent(nil), good...)
	tampered[len(tampered)/2].Detail += " "
	if err := verifyTrace(chaosRun, tampered); err == nil {
		t.Fatal("a tampered trace passed the digest check")
	}
	if err := verifyTrace(chaosRun, good[:len(good)-1]); err == nil {
		t.Fatal("a truncated trace passed the digest check")
	}
	// Kickstart faults hash member IDs, which derive from the fleet name.
	if err := verifyTrace(chaosRun, runChaos(t, "c")); err == nil {
		t.Fatal("a fleet not named after the built-in passed the digest check")
	}
}
