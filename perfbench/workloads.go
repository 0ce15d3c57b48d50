package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	"xcbc/pkg/xcbc"
)

// setupReps is how many times a run sets up its server; setup_s is the
// median, so one slow start does not move it.
const setupReps = 7

// freshServers starts the child setupReps times on an empty data
// directory, keeping the last, and returns each start's time to healthy.
func (b *bench) freshServers() (*sample, error) {
	setup := &sample{}
	for i := 0; i < setupReps; i++ {
		if b.srv != nil {
			b.srv.kill()
			b.srv = nil
		}
		if err := os.RemoveAll(b.cfg.dataDir); err != nil {
			return setup, err
		}
		t0 := time.Now()
		srv, err := startServer(b.cfg)
		if err != nil {
			return setup, err
		}
		setup.addDur(time.Since(t0), time.Second)
		b.srv = srv
	}
	return setup, nil
}

// client connects to the current child, recording spans when traced.
func (b *bench) client(conns int) *client {
	c := newClient(b.srv.base, conns)
	c.tr = b.tr
	return c
}

// e2e assembles the end-to-end metrics every workload reports. main and
// side are the workload's headline and second latency, work its
// completed work per second, cpuPerOp the server's CPU time per unit of
// work; README.md says what each one is per workload.
func e2e(setup *sample, rssMB, cpuPerOp, main, side, work float64) map[string]metric {
	return map[string]metric{
		"setup_s":                  {setup.median(), "s"},
		"server_rss_mb_window_p50": {rssMB, "MB"},
		"server_cpu_ms_per_op":     {cpuPerOp, "ms"},
		"main_ms_block_mean":       {main, "ms"},
		"side_ms_block_mean":       {side, "ms"},
		"work_per_s":               {work, "1/s"},
	}
}

// warmup is how long a closed loop runs before its measured phase, so
// the phase does not time first-use costs (page faults, heap growth,
// connection setup).
func warmup(d time.Duration) time.Duration { return min(d/10, 3*time.Second) }

// phase is one measured phase: its start and length, the windows
// sampled over it and the server CPU time it began with.
type phase struct {
	start time.Time
	d     time.Duration
	win   *windowSampler
	cpu0  time.Duration
	steal stealMeter
}

func (b *bench) startPhase(d time.Duration) (*phase, error) {
	cpu0, err := b.srv.cpuTime()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	return &phase{start: start, d: d, win: startWindows(start, int(d/windowWidth), b.srv), cpu0: cpu0, steal: startSteal()}, nil
}

func (p *phase) since() time.Duration { return time.Since(p.start) }

// end waits for the last window.
func (p *phase) end() {
	p.win.wait()
	fmt.Printf("steal: %.2f%% of the phase on %s; median %.2f%% over %d windows of %v\n",
		p.steal.pct(), stealCPU, p.win.steal.median(), p.win.steal.n(), windowWidth)
}

// finish prints the figures every workload shares and returns the
// median of the child's per-window peak RSS and its CPU time per unit of
// work over the whole phase. units is how many units of work the phase
// completed. The phase's overall peak, the largest per-window peak, is
// printed as server_peak_rss_mb but not gated: it did not repeat within
// the bound.
func (b *bench) finish(rep *report, setup *sample, ph *phase, units int) (rss, cpuPerOp float64, err error) {
	cpu, err := b.srv.cpuTime()
	if err != nil {
		return 0, 0, err
	}
	rss = ph.win.peak.median()
	cpuPerOp = ms(cpu-ph.cpu0) / float64(units)
	line("setup_s", setup.median(), "s", setup.n())
	line("server_rss_mb_window_p50", rss, "MB", ph.win.peak.n())
	line("server_peak_rss_mb", ph.win.peak.q(1), "MB", ph.win.peak.n())
	line("server_cpu_ms_per_op", cpuPerOp, "ms", units)
	fmt.Printf("ops: %d attempted, %d failed\n", rep.attempted, rep.failed)
	return rss, cpuPerOp, nil
}

// blockFigure is a series' gated figure: its steal-corrected block
// means over the phase, at the blockQ quantile.
func (p *phase) blockFigure(t *timed) float64 {
	return t.blockMeans(p.d, phaseBlocks, p.win.steal.xs).q(blockQ)
}

// latency prints a latency series of the phase: its block figure under
// name, and the given quantiles over every observation, uncorrected, as
// name_p50, name_p90 and so on. It returns the block figure.
func (p *phase) latency(name string, t *timed, qs ...float64) float64 {
	v := p.blockFigure(t)
	line(name, v, "ms", len(t.v))
	all := t.all()
	for _, q := range qs {
		line(fmt.Sprintf("%s_p%d", name, int(math.Round(100*q))), all.q(q), "ms", all.n())
	}
	return v
}

// ---- deploy-day2 ---------------------------------------------------------

// deployDay2 is a closed loop of one client in open mode. Each cycle
// creates a seeded deployment shape, follows its SSE stream to ready,
// runs the day-2 operations and deletes it.
func (b *bench) deployDay2() (*report, error) {
	setup, err := b.freshServers()
	if err != nil {
		return nil, err
	}
	plan := shapes(b.seed, streamShapes, 1<<14)
	// The warm-up walks the plan backwards, so the phase starts on the
	// same shapes whatever the warm-up managed.
	wc := newClient(b.srv.base, 1)
	_, _, err = closedLoop(1, warmup(b.seconds), nil, func(_, i int) error {
		_, _, err := deployCycleOnce(wc, plan[len(plan)-1-i%len(plan)], "", "warm"+strconv.Itoa(i))
		return err
	})
	wc.close()
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	c := b.client(1)
	defer c.close()
	var ready, day2, cycle timed
	ph, err := b.startPhase(b.seconds)
	if err != nil {
		return nil, err
	}
	gaps := &sample{}
	done, elapsed, runErr := closedLoop(1, b.seconds, gaps, func(_, i int) error {
		at := ph.since()
		j := i % len(plan)
		r, d, err := deployCycleOnce(c, plan[j], "", strconv.Itoa(j))
		if err != nil {
			return err
		}
		ready.add(at, ms(r))
		day2.add(at, ms(d))
		cycle.add(at, ms(ph.since()-at))
		return nil
	})
	ph.end()
	cycles := done[0]
	rep := &report{attempted: int(c.attempted.Load()), failed: int(c.failed.Load()), correct: runErr == nil}
	fmt.Printf("deploy-day2: %d cycles in %.3fs\n", cycles, elapsed.Seconds())
	if cycles == 0 {
		return rep, fmt.Errorf("%w: no deploy cycle completed: %v", errCheck, runErr)
	}
	readyMs := ph.latency("deploy_ready_ms", &ready, 0.5, 0.9)
	day2Ms := ph.latency("day2_ms", &day2, 0.5, 0.9)
	perS := 1000 / ph.blockFigure(&cycle)
	line("deploy_cycles_per_s", perS, "1/s", cycles)
	line("deploy_cycles_per_s.overall", float64(cycles)/elapsed.Seconds(), "1/s", cycles)
	rss, cpuPerOp, err := b.finish(rep, setup, ph, cycles)
	if err != nil {
		return nil, err
	}
	rep.e2e = e2e(setup, rss, cpuPerOp, readyMs, day2Ms, perS)
	rep.layers = map[string]metric{"client.late_us_p99": {gaps.q(0.99), "us"}}
	return rep, runErr
}

// jobInfo is the part of a job answer the checks read.
type jobInfo struct {
	ID   int    `json:"id"`
	Name string `json:"name"`
}

// deployCycleOnce runs one deploy-day2 cycle and returns the time from
// POST to the SSE ready frame and the time of the day-2 operations plus
// the DELETE. Every answer is checked.
func deployCycleOnce(c *client, s shape, key, op string) (time.Duration, time.Duration, error) {
	reqs := deployCycle(s)
	t0 := time.Now()
	var created struct {
		ID string `json:"id"`
	}
	if err := c.call(withKey(reqs[0], key), 202, &created); err != nil {
		return 0, 0, err
	}
	c.span("create_deployment", op, 1, t0, time.Now())
	if err := c.awaitReady(created.ID, key); err != nil {
		return 0, 0, err
	}
	t1 := time.Now()
	var submitted []string
	for _, r := range reqs[2:4] {
		var j jobInfo
		if err := c.call(withKey(bind(r, created.ID), key), 201, &j); err != nil {
			return 0, 0, err
		}
		submitted = append(submitted, j.Name)
	}
	if err := c.call(withKey(bind(reqs[4], created.ID), key), 200, nil); err != nil {
		return 0, 0, err
	}
	var metrics struct {
		Nodes []json.RawMessage `json:"nodes"`
	}
	if err := c.call(withKey(bind(reqs[5], created.ID), key), 200, &metrics); err != nil {
		return 0, 0, err
	}
	if len(metrics.Nodes) == 0 {
		return 0, 0, fmt.Errorf("%w: %s metrics list no nodes", errCheck, created.ID)
	}
	var jobs struct {
		Count int       `json:"count"`
		Jobs  []jobInfo `json:"jobs"`
	}
	if err := c.call(withKey(bind(reqs[6], created.ID), key), 200, &jobs); err != nil {
		return 0, 0, err
	}
	if err := checkJobs(jobs.Jobs, submitted); err != nil {
		return 0, 0, fmt.Errorf("%w: %s: %v", errCheck, created.ID, err)
	}
	if err := c.call(withKey(bind(reqs[7], created.ID), key), 200, nil); err != nil {
		return 0, 0, err
	}
	if err := c.call(withKey(bind(reqs[8], created.ID), key), 204, nil); err != nil {
		return 0, 0, err
	}
	t2 := time.Now()
	c.span("deploy_ready", op, 2, t0, t1) // the POST and the event stream
	c.span("day2", op, len(reqs)-2, t1, t2)
	return t1.Sub(t0), t2.Sub(t1), nil
}

func withKey(r request, key string) request {
	r.Key = key
	return r
}

// checkJobs requires the job list to hold exactly the submitted jobs, in
// any order.
func checkJobs(listed []jobInfo, submitted []string) error {
	names := make([]string, len(listed))
	for i, j := range listed {
		names[i] = j.Name
	}
	slices.Sort(names)
	want := slices.Sorted(slices.Values(submitted))
	if !slices.Equal(names, want) {
		return fmt.Errorf("jobs listed %v, submitted %v", names, want)
	}
	return nil
}

// ---- sim-fleet -----------------------------------------------------------

// simFleet is a closed loop of one client. Each cycle runs chaos-kickstart
// on a fresh 32-member fleet and campus-100 on a fresh 100-member fleet,
// pages and verifies both traces, deletes both fleets, and runs one
// 32-seed campaign.
func (b *bench) simFleet() (*report, error) {
	setup, err := b.freshServers()
	if err != nil {
		return nil, err
	}
	c := b.client(1)
	defer c.close()
	starts := campaignStarts(b.seed, 1<<12)
	// The warm-up walks the campaign starts backwards, on its own op names.
	wc := newClient(b.srv.base, 1)
	_, _, err = closedLoop(1, warmup(b.seconds), nil, func(_, i int) error {
		_, _, _, err := simCycle(wc, starts[len(starts)-1-i%len(starts)], "warm"+strconv.Itoa(i))
		return err
	})
	wc.close()
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	var chaos, campus, campaign timed
	ph, err := b.startPhase(b.seconds)
	if err != nil {
		return nil, err
	}
	gaps := &sample{}
	done, elapsed, runErr := closedLoop(1, b.seconds, gaps, func(_, i int) error {
		at := ph.since()
		ch, ca, cm, err := simCycle(c, starts[i%len(starts)], strconv.Itoa(i))
		if err != nil {
			return err
		}
		chaos.add(at, ms(ch))
		campus.add(at, ms(ca))
		campaign.add(at, ms(cm))
		return nil
	})
	ph.end()
	rep := &report{attempted: int(c.attempted.Load()), failed: int(c.failed.Load()), correct: runErr == nil}
	fmt.Printf("sim-fleet: %d cycles in %.3fs\n", done[0], elapsed.Seconds())
	if done[0] == 0 {
		return rep, fmt.Errorf("%w: no sim-fleet cycle completed: %v", errCheck, runErr)
	}
	chaosMs := ph.latency("chaos_run_ms", &chaos, 0.5, 0.9)
	campusMs := ph.latency("campus_run_ms", &campus, 0.5)
	campaignMs := ph.latency("campaign_ms", &campaign, 0.5)
	seedsPerS := campaignSeeds / (campaignMs / 1000)
	line("campaign_seeds_per_s", seedsPerS, "1/s", len(campaign.v)*campaignSeeds)
	rss, cpuPerOp, err := b.finish(rep, setup, ph, done[0])
	if err != nil {
		return nil, err
	}
	rep.e2e = e2e(setup, rss, cpuPerOp, chaosMs, campusMs, seedsPerS)
	rep.layers = map[string]metric{"client.late_us_p99": {gaps.q(0.99), "us"}}
	return rep, runErr
}

// simCycle runs one sim-fleet cycle and returns the duration of each
// part: chaos-kickstart on a fresh 32-member fleet, campus-100 on a fresh
// 100-member fleet, and one campaign from start.
func simCycle(c *client, start int64, op string) (chaos, campus, campaign time.Duration, err error) {
	if chaos, err = runBuiltin(c, chaosRun, "", true, op); err != nil {
		return
	}
	if campus, err = runBuiltin(c, campusRun, "", true, op); err != nil {
		return
	}
	campaign, err = runCampaign(c, start, op)
	return
}

// pollEvery is how long a client waits between status polls of an
// asynchronous run; it bounds how late a settled run is noticed.
const pollEvery = time.Millisecond

// runBuiltin creates a fresh unprovisioned fleet named after the
// built-in, runs the scenario, waits for it to settle, pages the whole
// trace and verifies it against the pinned count and digest. It returns
// the time from fleet creation to the last trace page. With del it also
// deletes the fleet.
func runBuiltin(c *client, br builtinRun, key string, del bool, op string) (time.Duration, error) {
	t0 := time.Now()
	sent := 2 // the fleet and the run; each poll and page adds one
	var fl struct {
		ID string `json:"id"`
	}
	if err := c.call(request{Method: "POST", Path: "/api/v1/fleets", Body: br.fleet, Key: key, Class: "create_fleet"}, 202, &fl); err != nil {
		return 0, err
	}
	var run struct {
		ID string `json:"id"`
	}
	body := fmt.Sprintf(`{"name":%q}`, br.name)
	if err := c.call(request{Method: "POST", Path: "/api/v1/fleets/" + fl.ID + "/scenarios", Body: body, Key: key, Class: "run_scenario"}, 202, &run); err != nil {
		return 0, err
	}
	runPath := "/api/v1/fleets/" + fl.ID + "/scenarios/" + run.ID
	for {
		var st struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		sent++
		if err := c.call(request{Method: "GET", Path: runPath + "?limit=1", Key: key, Class: "poll_run"}, 200, &st); err != nil {
			return 0, err
		}
		if st.State == "running" {
			time.Sleep(pollEvery)
			continue
		}
		if st.State != "passed" {
			return 0, fmt.Errorf("%w: %s on %s settled %q %s", errCheck, br.name, fl.ID, st.State, st.Error)
		}
		break
	}
	var events []xcbc.TraceEvent
	for cursor := 0; ; {
		var pg struct {
			Events     []xcbc.TraceEvent `json:"events"`
			NextCursor int               `json:"next_cursor"`
		}
		path := fmt.Sprintf("%s?cursor=%d&limit=%d", runPath, cursor, tracePageLimit)
		sent++
		if err := c.call(request{Method: "GET", Path: path, Key: key, Class: "trace_page"}, 200, &pg); err != nil {
			return 0, err
		}
		events = append(events, pg.Events...)
		if len(pg.Events) < tracePageLimit {
			break
		}
		cursor = pg.NextCursor
	}
	t1 := time.Now()
	c.span(br.name, op, sent, t0, t1)
	elapsed := t1.Sub(t0)
	if err := verifyTrace(br, events); err != nil {
		return 0, fmt.Errorf("%w: fleet %s: %v", errCheck, fl.ID, err)
	}
	if del {
		if err := c.call(request{Method: "DELETE", Path: "/api/v1/fleets/" + fl.ID, Key: key, Class: "delete_fleet"}, 204, nil); err != nil {
			return 0, err
		}
	}
	return elapsed, nil
}

// tracePageLimit is the page size sim-fleet reads traces with.
const tracePageLimit = 100

// verifyTrace re-encodes a paged trace as the JSON lines the scenario
// engine's golden files hold and compares count and SHA-256 with the
// values pinned for the built-in.
func verifyTrace(br builtinRun, events []xcbc.TraceEvent) error {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			return err
		}
	}
	sum := hex.EncodeToString(h.Sum(nil))
	if len(events) != br.events || sum != br.sha256 {
		return fmt.Errorf("%s trace has %d events sha256 %s, pinned %d events sha256 %s",
			br.name, len(events), sum, br.events, br.sha256)
	}
	return nil
}

// runCampaign sweeps campaignSeeds generated scenarios from start and
// returns the time from POST to the settled campaign, which must pass
// every seed.
func runCampaign(c *client, start int64, op string) (time.Duration, error) {
	t0 := time.Now()
	body := fmt.Sprintf(`{"seeds":%d,"start_seed":%d,"workers":%d}`, campaignSeeds, start, campaignWorkers)
	var cr struct {
		ID string `json:"id"`
	}
	if err := c.call(request{Method: "POST", Path: "/api/v1/campaigns", Body: body, Class: "create_campaign"}, 202, &cr); err != nil {
		return 0, err
	}
	for sent := 2; ; sent++ { // the POST and this poll
		var st struct {
			State     string `json:"state"`
			Error     string `json:"error"`
			Completed int    `json:"completed"`
			Passed    int    `json:"passed"`
		}
		if err := c.call(request{Method: "GET", Path: "/api/v1/campaigns/" + cr.ID, Class: "poll_campaign"}, 200, &st); err != nil {
			return 0, err
		}
		if st.State == "running" {
			time.Sleep(2 * pollEvery)
			continue
		}
		if st.State != "passed" || st.Completed != campaignSeeds || st.Passed != campaignSeeds {
			return 0, fmt.Errorf("%w: campaign %s from seed %d settled %q (%d/%d passed) %s",
				errCheck, cr.ID, start, st.State, st.Passed, st.Completed, st.Error)
		}
		t1 := time.Now()
		c.span("campaign", op, sent, t0, t1)
		return t1.Sub(t0), nil
	}
}

// ---- read-mix ------------------------------------------------------------

// readRate is the read mix's fixed offered rate in requests per second,
// well below the mix's closed-loop capacity (README.md says why it is not
// half of it).
const readRate = 500

// lateShare bounds the generator's median lateness as a share of the
// median read latency. Latency is measured from due times, so a late
// generator is charged to the server; past this share the run measures
// the generator and is invalid.
const lateShare = 0.25

func writeTenants(path string, rateLimit float64) error {
	type tc struct {
		Name      string  `json:"name"`
		Key       string  `json:"key"`
		RateLimit float64 `json:"rate_limit"`
	}
	var ts []tc
	for i := 0; i < readTenants; i++ {
		ts = append(ts, tc{Name: tenantName(i), Key: tenantKey(i), RateLimit: rateLimit})
	}
	data, err := json.Marshal(ts)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// readMixRun preloads 16 tenants, kills the server with SIGKILL, restarts
// it on the same data directory and verifies the recovered counts, then
// sends the read mix for half the measured seconds as an open loop at
// readRate and, after one more restart without rate limits, for the other
// half as a closed loop of one connection.
func (b *bench) readMixRun() (*report, error) {
	t0 := time.Now()
	if err := os.RemoveAll(b.cfg.dataDir); err != nil {
		return nil, err
	}
	cfg := b.cfg
	cfg.tenants = filepath.Join(b.runDir, "tenants-preload.json")
	if err := writeTenants(cfg.tenants, 0); err != nil {
		return nil, err
	}
	srv, err := startServer(cfg)
	if err != nil {
		return nil, err
	}
	b.srv = srv
	pc := b.client(2)
	if err := preload(pc, b.seed); err != nil {
		pc.close()
		return nil, err
	}
	pc.close()
	preloadDone := time.Since(t0)
	// Recovery is the work that repeats: kill and restart setupReps times.
	cfg.tenants = filepath.Join(b.runDir, "tenants.json")
	if err := writeTenants(cfg.tenants, 10*readRate/readTenants); err != nil {
		return nil, err
	}
	setup, recover := &sample{}, &sample{}
	for i := 0; i < setupReps; i++ {
		b.srv.kill()
		b.srv = nil
		st, r0 := startSteal(), time.Now()
		srv, err := startServer(cfg)
		if err != nil {
			return nil, err
		}
		b.srv = srv
		c := b.client(1)
		err = checkPreloaded(c)
		c.close()
		if err != nil {
			return nil, err
		}
		recover.add(ms(time.Since(r0)) * (1 - st.pct()/100))
		setup.add(preloadDone.Seconds() + time.Since(r0).Seconds())
	}

	openSecs := (b.seconds / 2).Truncate(windowWidth)
	c := b.client(2)
	defer c.close()
	seqs0, err := storeSeqs(c)
	if err != nil {
		return nil, err
	}
	reqs := readMix(b.seed, 1<<14)
	ph, err := b.startPhase(openSecs)
	if err != nil {
		return nil, err
	}
	res := openLoop(c, reqs, readRate, ph.start, openSecs, 2)
	ph.end()
	seqs1, err := storeSeqs(c)
	if err != nil {
		return nil, err
	}
	rep := &report{attempted: res.sent, failed: len(res.failures), correct: len(res.failures) == 0}
	fmt.Printf("read-mix: %d requests at %d/s in %.3fs, %d response bytes\n", res.sent, readRate, res.elapsed.Seconds(), res.bytes)
	ph.latency("read_ms", &res.latency, 0.5, 0.9, 0.99)
	line("recover_s", recover.median()/1000, "s", recover.n())
	line("preload_s", preloadDone.Seconds(), "s", 0)
	line("client.late_us_p50", res.late.median(), "us", res.late.n())
	line("client.late_us_p99", res.late.q(0.99), "us", res.late.n())
	for _, class := range readClasses {
		if t := res.byClass[class]; t != nil {
			line("read_ms_p50."+class, t.all().median(), "ms", len(t.v))
		}
	}
	rep.layers = map[string]metric{"client.late_us_p99": {res.late.q(0.99), "us"}}
	for i, f := range res.failures {
		if i == 5 {
			break
		}
		fmt.Fprintln(os.Stderr, "read failed:", f)
	}
	if len(res.failures) > 0 {
		return rep, fmt.Errorf("%w: %d of %d reads failed", errCheck, len(res.failures), res.sent)
	}
	if err := sameSeqs(seqs0, seqs1); err != nil {
		return rep, err
	}
	if late, bound := res.late.median(), lateShare*res.latency.all().median()*1000; late > bound {
		return rep, fmt.Errorf("%w: generator lateness p50 %.0fus exceeds %.0f%% of the read latency p50; the run is invalid",
			errCheck, late, 100*lateShare)
	}

	// The closed loop runs without rate limits, which it would otherwise
	// hit: one more restart, on the preload's tenants.
	b.srv.kill()
	cfg.tenants = filepath.Join(b.runDir, "tenants-preload.json")
	if b.srv, err = startServer(cfg); err != nil {
		return rep, err
	}
	cc := b.client(1)
	defer cc.close()
	if err := checkPreloaded(cc); err != nil {
		return rep, err
	}
	if seqs0, err = storeSeqs(cc); err != nil {
		return rep, err
	}
	closedSecs := b.seconds - openSecs
	cph, err := b.startPhase(closedSecs)
	if err != nil {
		return rep, err
	}
	closed, n, closedErr := readClosed(cc, reqs, cph.start, closedSecs)
	cph.end()
	rep.attempted += n
	if closedErr != nil {
		rep.failed++
		return rep, fmt.Errorf("%w: closed loop: %v", errCheck, closedErr)
	}
	closedMs := cph.latency("read_closed_ms", closed, 0.5, 0.9)
	perS := 1000 / closedMs
	line("read_capacity_per_s", perS, "1/s", n)
	// The open loop leaves the server idle most of the time, so its CPU
	// per read would mostly be idle-time housekeeping: RSS and CPU come
	// from the closed loop.
	rss, cpuPerOp, err := b.finish(rep, setup, cph, len(closed.v))
	if err != nil {
		return rep, err
	}
	if seqs1, err = storeSeqs(cc); err != nil {
		return rep, err
	}
	rep.e2e = e2e(setup, rss, cpuPerOp, closedMs, recover.median(), perS)
	return rep, sameSeqs(seqs0, seqs1)
}

// sameSeqs requires every tenant's WAL next_seq to be unchanged: reads
// journal nothing.
func sameSeqs(before, after []uint64) error {
	for i := range before {
		if before[i] != after[i] {
			return fmt.Errorf("%w: tenant %s journaled during a read phase (next_seq %d -> %d)",
				errCheck, tenantName(i), before[i], after[i])
		}
	}
	return nil
}

// readClosed sends the read mix as a closed loop of one connection from
// start for d and returns the completed reads, timed by when each began,
// and how many it sent. Any answer outside 2xx stops it with an error.
func readClosed(c *client, reqs []request, start time.Time, d time.Duration) (*timed, int, error) {
	done := &timed{}
	n, _, err := closedLoop(1, d, nil, func(_, i int) error {
		r := reqs[i%len(reqs)]
		t0 := time.Now()
		code, err := c.send(r, io.Discard)
		if err == nil && (code < 200 || code > 299) {
			err = fmt.Errorf("%s %s: status %d", r.Method, r.Path, code)
		}
		if err == nil {
			done.add(t0.Sub(start), ms(time.Since(t0)))
		}
		return err
	})
	sent := n[0]
	if err != nil {
		sent++ // the failed read
	}
	return done, sent, err
}

// preload creates every tenant's deployments (each with one submitted
// job) and its settled rolling-update fleet, two tenants at a time.
func preload(c *client, seed uint64) error {
	plan := shapes(seed, streamPreload, readTenants*readDeployments)
	tenants := make(chan int, readTenants) // one slot per tenant
	for t := 0; t < readTenants; t++ {
		tenants <- t
	}
	close(tenants)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range tenants {
				if err := preloadTenant(c, t, plan[t*readDeployments:(t+1)*readDeployments]); err != nil {
					errs[w] = fmt.Errorf("preloading tenant %s: %w", tenantName(t), err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := errs[0]; err != nil {
		return err
	}
	return errs[1]
}

func preloadTenant(c *client, t int, plan []shape) error {
	key := tenantKey(t)
	for _, s := range plan {
		var created struct {
			ID string `json:"id"`
		}
		if err := c.call(request{Method: "POST", Path: "/api/v1/deployments", Body: s.body(), Key: key, Class: "create_deployment"}, 202, &created); err != nil {
			return err
		}
		if err := c.awaitReady(created.ID, key); err != nil {
			return err
		}
		if err := c.call(request{Method: "POST", Path: "/api/v1/clusters/" + created.ID + "/jobs", Body: day2Jobs[0], Key: key, Class: "submit_job"}, 201, nil); err != nil {
			return err
		}
	}
	_, err := runBuiltin(c, rollingRun, key, false, tenantName(t))
	return err
}

// checkPreloaded verifies every tenant's recovered state equals the
// preload: 40 ready deployments with one job each, one fleet whose
// rolling-update run passed.
func checkPreloaded(c *client) error {
	for t := 0; t < readTenants; t++ {
		key := tenantKey(t)
		var deps struct {
			Deployments []struct {
				State string `json:"state"`
			} `json:"deployments"`
		}
		if err := c.call(request{Method: "GET", Path: "/api/v1/deployments?limit=1000", Key: key, Class: "check"}, 200, &deps); err != nil {
			return err
		}
		var cls struct {
			Clusters []struct {
				Queued  int `json:"jobs_queued"`
				Running int `json:"jobs_running"`
				Done    int `json:"jobs_done"`
			} `json:"clusters"`
		}
		if err := c.call(request{Method: "GET", Path: "/api/v1/clusters?limit=1000", Key: key, Class: "check"}, 200, &cls); err != nil {
			return err
		}
		var fls struct {
			Count int `json:"count"`
		}
		if err := c.call(request{Method: "GET", Path: "/api/v1/fleets", Key: key, Class: "check"}, 200, &fls); err != nil {
			return err
		}
		var run struct {
			State string `json:"state"`
		}
		if err := c.call(request{Method: "GET", Path: "/api/v1/fleets/f1/scenarios/s1?limit=1", Key: key, Class: "check"}, 200, &run); err != nil {
			return err
		}
		jobs := 0
		for _, cl := range cls.Clusters {
			jobs += cl.Queued + cl.Running + cl.Done
		}
		readyN := 0
		for _, d := range deps.Deployments {
			if d.State == "ready" {
				readyN++
			}
		}
		if readyN != readDeployments || len(cls.Clusters) != readDeployments || jobs != readDeployments || fls.Count != 1 || run.State != "passed" {
			return fmt.Errorf("%w: tenant %s recovered %d/%d ready deployments, %d clusters, %d jobs, %d fleets, run %q; preloaded %d each with one job, 1 fleet, run passed",
				errCheck, tenantName(t), readyN, len(deps.Deployments), len(cls.Clusters), jobs, fls.Count, run.State, readDeployments)
		}
	}
	return nil
}

// storeSeqs reads every tenant's WAL next_seq.
func storeSeqs(c *client) ([]uint64, error) {
	out := make([]uint64, readTenants)
	for t := range out {
		var st struct {
			NextSeq uint64 `json:"next_seq"`
		}
		if err := c.call(request{Method: "GET", Path: "/api/v1/store", Key: tenantKey(t), Class: "store"}, 200, &st); err != nil {
			return nil, err
		}
		out[t] = st.NextSeq
	}
	return out, nil
}
