package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"xcbc/internal/campaign"
	"xcbc/internal/core"
	"xcbc/internal/depsolve"
	"xcbc/internal/fleet"
	"xcbc/internal/repo"
	"xcbc/internal/rpm"
	"xcbc/internal/scenario"
	"xcbc/internal/sim"
	"xcbc/internal/wal"
	"xcbc/pkg/xcbc"
	"xcbc/pkg/xcbc/api"
)

// How many operations each in-process layer replays. The replays reuse
// the measured phase's seeded sequence from its start, so the first ops
// of both carry the same op IDs.
const (
	peelDeploys   = 40
	peelFleetRuns = 3
	peelReads     = 2000
	peelAdmission = 500
	peelHTTP      = 1000
	peelWALDeploy = 20
)

// peeler replays one workload's operations layer by layer in process.
type peeler struct {
	b      *bench
	tr     *tracer
	layers map[string]metric
	dir    string
	xnit   *repo.Repository
}

func (p *peeler) set(name string, v float64, unit string) { p.layers[name] = metric{v, unit} }

func (p *peeler) run() error {
	if err := os.MkdirAll(p.dir, 0o755); err != nil {
		return err
	}
	xnit, err := xcbc.NewXNITRepository()
	if err != nil {
		return err
	}
	p.xnit = xnit
	for _, step := range []func() error{p.deployLayers, p.fleetLayers, p.readLayers, p.walLayers} {
		if err := step(); err != nil {
			return err
		}
	}
	p.residual()
	return nil
}

// openAPI opens an in-process control plane the way repo-server does.
func (p *peeler) openAPI(dir string, tenants []api.TenantConfig, snapEvery int) (*api.Server, *api.RecoveryReport, error) {
	return api.Open(api.Config{Repos: []*repo.Repository{p.xnit}, DataDir: dir, Tenants: tenants, SnapshotEvery: snapEvery})
}

func benchTenants() []api.TenantConfig {
	out := make([]api.TenantConfig, readTenants)
	for i := range out {
		out[i] = api.TenantConfig{Name: tenantName(i), Key: tenantKey(i)}
	}
	return out
}

// deployLayers replays the deploy-day2 cycles at the api, sdk, core and
// orchestrator entry points.
func (p *peeler) deployLayers() error {
	plan := shapes(p.b.seed, streamShapes, peelDeploys)
	srv, _, err := p.openAPI(filepath.Join(p.dir, "deploy-api"), nil, 0)
	if err != nil {
		return err
	}
	ic := newInprocClient(srv.Handler(), p.tr)
	for j, s := range plan {
		if _, _, err := deployCycleOnce(ic, s, "", strconv.Itoa(j)); err != nil {
			srv.Close()
			return err
		}
	}
	if err := srv.Close(); err != nil {
		return err
	}
	p.set("api.create_deployment_us_p50", p.tr.layerSample("api", "create_deployment", time.Microsecond).median(), "us")

	ready, day2, build, simSecs := &sample{}, &sample{}, &sample{}, &sample{}
	ctx := context.Background()
	for j, s := range plan {
		op := strconv.Itoa(j)
		t0 := time.Now()
		h, err := sdkBuilder(s).Start(ctx)
		if err != nil {
			return err
		}
		if _, err := h.Wait(ctx); err != nil {
			return err
		}
		t1 := time.Now()
		p.tr.record("sdk", "deploy_ready", op, t0, t1)
		ready.addDur(t1.Sub(t0), time.Microsecond)
		cl, err := h.Cluster()
		if err != nil {
			return err
		}
		t2 := time.Now()
		if err := sdkDay2(cl); err != nil {
			return err
		}
		t3 := time.Now()
		p.tr.record("sdk", "day2", op, t2, t3)
		day2.addDur(t3.Sub(t2), time.Microsecond)

		hw, err := xcbc.NewCluster(s.Cluster)
		if err != nil {
			return err
		}
		t4 := time.Now()
		d, err := core.BuildXCBCContext(ctx, sim.NewEngine(), hw, core.Options{Scheduler: s.Scheduler, OptionalRolls: coreRolls(s)})
		if err != nil {
			return err
		}
		t5 := time.Now()
		p.tr.record("core", "deploy_ready", op, t4, t5)
		build.addDur(t5.Sub(t4), time.Microsecond)
		simSecs.add(d.InstallDuration.Seconds())
	}
	p.set("sdk.start_to_ready_us_p50", ready.median(), "us")
	p.set("sdk.day2_us_p50", day2.median(), "us")
	p.set("core.build_us_p50", build.median(), "us")
	p.set("core.sim_install_s", simSecs.median(), "s")

	// Two concurrent starts: how long a build waits in the orchestrator's
	// queue before its first state change to building.
	wait := &sample{}
	for j := 0; j+1 < len(plan); j += 2 {
		var hs [2]*xcbc.Handle
		var started [2]time.Time
		for k := range hs {
			h, err := sdkBuilder(plan[j+k]).Start(ctx)
			if err != nil {
				return err
			}
			hs[k], started[k] = h, time.Now()
		}
		for k, h := range hs {
			wake, unsub := h.Subscribe()
			for h.Status() == xcbc.StatePending {
				select {
				case <-wake:
				case <-h.Done():
				}
			}
			unsub()
			now := time.Now()
			p.tr.record("orchestrator", "queue_wait", strconv.Itoa(j+k), started[k], now)
			wait.addDur(now.Sub(started[k]), time.Microsecond)
			if _, err := h.Wait(ctx); err != nil {
				return err
			}
		}
	}
	p.set("orchestrator.queue_wait_us_p50", wait.median(), "us")
	return nil
}

// sdkBuilder mirrors the server's translation of a deployment request.
func sdkBuilder(s shape) xcbc.Builder {
	opts := []xcbc.Option{xcbc.WithCluster(s.Cluster), xcbc.WithScheduler(s.Scheduler)}
	if s.Rolls != nil {
		opts = append(opts, xcbc.WithRolls(s.Rolls...))
	}
	return xcbc.NewXCBC(opts...)
}

// coreRolls mirrors the SDK's roll defaulting.
func coreRolls(s shape) []string {
	if s.Rolls == nil {
		return []string{"ganglia", "hpc"}
	}
	return append([]string{}, s.Rolls...)
}

// sdkDay2 runs the Cluster methods behind the deploy-day2 day-2 routes.
func sdkDay2(cl *xcbc.Cluster) error {
	for _, j := range []xcbc.JobSpec{
		{Name: "bench-a", User: "bench", Cores: 1, Walltime: time.Hour, Runtime: 20 * time.Minute},
		{Name: "bench-b", User: "bench", Cores: 1, Walltime: 2 * time.Hour, Runtime: 45 * time.Minute},
	} {
		if _, err := cl.SubmitJob(j); err != nil {
			return err
		}
	}
	cl.Advance(30 * time.Minute)
	cl.Metrics()
	if n := len(cl.Jobs()); n != 2 {
		return fmt.Errorf("%w: sdk cluster lists %d jobs, want 2", errCheck, n)
	}
	cl.CheckUpdates(xcbc.UpdateNotify, time.Now())
	return nil
}

// fleetLayers replays sim-fleet runs at the api, sdk and internal entry
// points, and times fleet provisioning and campaigns on their own.
func (p *peeler) fleetLayers() error {
	ctx := context.Background()
	srv, _, err := p.openAPI(filepath.Join(p.dir, "fleet-api"), nil, 0)
	if err != nil {
		return err
	}
	ic := newInprocClient(srv.Handler(), p.tr)
	starts := campaignStarts(p.b.seed, peelFleetRuns)
	for i := 0; i < peelFleetRuns; i++ {
		op := strconv.Itoa(i)
		if _, err := runBuiltin(ic, chaosRun, "", true, op); err != nil {
			srv.Close()
			return err
		}
		if _, err := runBuiltin(ic, campusRun, "", true, op); err != nil {
			srv.Close()
			return err
		}
		if _, err := runCampaign(ic, starts[i], op); err != nil {
			srv.Close()
			return err
		}
	}
	if err := srv.Close(); err != nil {
		return err
	}

	events := 0
	for _, br := range []builtinRun{chaosRun, campusRun} {
		internal := &sample{}
		for i := 0; i < peelFleetRuns; i++ {
			op := strconv.Itoa(i)
			sc, err := xcbc.BuiltinScenario(br.name)
			if err != nil {
				return err
			}
			t0 := time.Now()
			fl, err := xcbc.NewFleet(sc.FleetSpec())
			if err != nil {
				return err
			}
			res, err := fl.RunScenario(ctx, sc)
			if err != nil {
				return err
			}
			t1 := time.Now()
			if !res.Passed() {
				return fmt.Errorf("%w: sdk %s did not pass", errCheck, br.name)
			}
			p.tr.record("sdk", br.name, op, t0, t1)

			isc := scenario.Builtin(br.name)
			t2 := time.Now()
			ifl, err := fleet.New(isc.FleetSpec())
			if err != nil {
				return err
			}
			ires, err := scenario.RunOn(ctx, ifl, isc)
			if err != nil {
				return err
			}
			t3 := time.Now()
			p.tr.record("scenario", br.name, op, t2, t3)
			internal.addDur(t3.Sub(t2), time.Millisecond)
			if i == 0 {
				events += len(ires.Events)
			}
		}
		short := map[string]string{chaosRun.name: "chaos", campusRun.name: "campus"}[br.name]
		p.set("scenario."+short+"_ms_p50", internal.median(), "ms")
	}
	p.set("scenario.trace_events", float64(events), "count")

	for _, br := range []builtinRun{chaosRun, campusRun} {
		prov := &sample{}
		for i := 0; i < peelFleetRuns; i++ {
			spec := scenario.Builtin(br.name).FleetSpec()
			t0 := time.Now()
			fl, err := fleet.New(spec)
			if err != nil {
				return err
			}
			if err := fl.Provision(ctx); err != nil {
				return err
			}
			if err := fl.Wait(ctx); err != nil {
				return err
			}
			t1 := time.Now()
			p.tr.record("fleet", "provision"+strconv.Itoa(spec.Members), strconv.Itoa(i), t0, t1)
			prov.addDur(t1.Sub(t0), time.Millisecond)
		}
		p.set(fmt.Sprintf("fleet.provision%d_ms_p50", scenario.Builtin(br.name).Fleet.Members), prov.median(), "ms")
	}

	camp := &sample{}
	for i, start := range starts {
		t0 := time.Now()
		res, err := campaign.Run(ctx, campaign.Spec{Seeds: campaignSeeds, StartSeed: start, Workers: campaignWorkers})
		if err != nil {
			return err
		}
		t1 := time.Now()
		if !res.Clean() {
			return fmt.Errorf("%w: campaign from seed %d is not clean", errCheck, start)
		}
		p.tr.record("campaign", "campaign", strconv.Itoa(i), t0, t1)
		camp.addDur(t1.Sub(t0), time.Second)
	}
	p.set("campaign.seeds_per_s", campaignSeeds/camp.median(), "1/s")
	return nil
}

// readLayers replays the read mix against an in-process server holding
// the 16-tenant population: on read-mix the measured run's own data
// directory, recovered; on the other workloads a fresh in-process preload.
func (p *peeler) readLayers() error {
	dir := filepath.Join(p.dir, "read-api")
	if p.b.workload == "read-mix" {
		if err := copyDir(p.b.cfg.dataDir, dir); err != nil {
			return err
		}
	} else {
		srv, _, err := p.openAPI(dir, benchTenants(), 0)
		if err != nil {
			return err
		}
		err = preload(newInprocClient(srv.Handler(), nil), p.b.seed)
		if cerr := srv.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	t0 := time.Now()
	srv, rec, err := p.openAPI(dir, benchTenants(), 0)
	if err != nil {
		return err
	}
	defer srv.Close()
	p.set("api.recover_ms", float64(time.Since(t0))/float64(time.Millisecond), "ms")
	p.set("api.recover_records", float64(rec.Records), "count")
	p.set("api.recover_rebuilt", float64(rec.Rebuilt), "count")
	p.set("api.recover_ops_replayed", float64(rec.OpsReplayed), "count")

	ic := newInprocClient(srv.Handler(), nil)
	set := repo.NewSet()
	set.Add(repo.Config{Repo: p.xnit, Priority: xcbc.XNITPriority, Enabled: true, GPGCheck: true})
	reqs := readMix(p.b.seed, peelReads)
	byClass := map[string]*sample{}
	var bytesTotal int64
	dep := &sample{}
	for i, r := range reqs {
		op := strconv.Itoa(i)
		var body countingDiscard
		t0 := time.Now()
		code, err := ic.send(r, &body)
		t1 := time.Now()
		if err == nil && (code < 200 || code > 299) {
			err = fmt.Errorf("%w: in-process %s %s: status %d", errCheck, r.Method, r.Path, code)
		}
		if err != nil {
			return err
		}
		p.tr.record("api", "read", op, t0, t1)
		bytesTotal += body.n
		if byClass[r.Class] == nil {
			byClass[r.Class] = &sample{}
		}
		byClass[r.Class].addDur(t1.Sub(t0), time.Microsecond)
		if r.Class == "depsolve" {
			var in struct {
				Install []string `json:"install"`
			}
			if err := json.Unmarshal([]byte(r.Body), &in); err != nil {
				return err
			}
			t2 := time.Now()
			if _, err := depsolve.New(set, rpm.NewDB()).Install(in.Install...); err != nil {
				return err
			}
			t3 := time.Now()
			p.tr.record("depsolve", "read", op, t2, t3)
			dep.addDur(t3.Sub(t2), time.Microsecond)
		}
	}
	pool := func(classes ...string) float64 {
		s := &sample{}
		for _, c := range classes {
			if byClass[c] != nil {
				s.xs = append(s.xs, byClass[c].xs...)
			}
		}
		return s.median()
	}
	p.set("api.list_deployments_us_p50", pool("list_deployments", "list_deployments_p2"), "us")
	p.set("api.list_clusters_us_p50", pool("list_clusters"), "us")
	p.set("api.list_fleets_us_p50", pool("list_fleets"), "us")
	p.set("api.run_page_us_p50", pool("run_page"), "us")
	p.set("api.item_get_us_p50", pool("get_deployment", "get_cluster", "get_jobs", "get_fleet"), "us")
	p.set("api.resp_bytes_per_req", float64(bytesTotal)/float64(len(reqs)), "bytes")
	p.set("depsolve.install_us_p50", dep.median(), "us")
	if err := p.httpOverhead(srv.Handler(), ic, reqs[:peelHTTP]); err != nil {
		return err
	}

	// Admission: an unknown key walks every tenant's key and answers 401.
	adm := &sample{}
	for i := 0; i < peelAdmission; i++ {
		t0 := time.Now()
		code, err := ic.send(request{Method: "GET", Path: "/api/v1/deployments?limit=1", Key: "not-a-tenant-key"}, io.Discard)
		if err != nil {
			return err
		}
		if code != 401 {
			return fmt.Errorf("%w: unknown key answered %d, want 401", errCheck, code)
		}
		adm.addDur(time.Since(t0), time.Microsecond)
	}
	p.set("api.admission_us_p50", adm.median(), "us")
	return nil
}

// walLayers measures the journal a workload cycle writes and replays it
// through the log directly with the server's options and snapshot policy.
func (p *peeler) walLayers() error {
	// Journal a few cycles with snapshots off, so every record stays on
	// disk to be counted and replayed.
	dir := filepath.Join(p.dir, "wal-cycles")
	var tenants []api.TenantConfig
	if p.b.workload == "read-mix" {
		tenants = benchTenants()
	}
	srv, _, err := p.openAPI(dir, tenants, 1<<30)
	if err != nil {
		return err
	}
	ic := newInprocClient(srv.Handler(), nil)
	cycles, err := p.walCycles(ic)
	if cerr := srv.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	logDir := dir
	if tenants != nil {
		logDir = filepath.Join(dir, "tenants", tenantName(0))
	}
	l, rec, err := wal.Open(logDir, wal.Options{})
	if err != nil {
		return err
	}
	if err := l.Close(); err != nil {
		return err
	}
	var nbytes int
	for _, r := range rec.Records {
		nbytes += 8 + 10 + len(r.Type) + len(r.Data) // frame header, seq+type length, payload
	}
	p.set("wal.records_per_cycle", float64(len(rec.Records))/float64(cycles), "count")
	p.set("wal.bytes_per_cycle", float64(nbytes)/float64(cycles), "bytes")

	// The measured run's data directory, written under the default
	// policy: open it (read and CRC-verify) and take its newest snapshot.
	runCopy := filepath.Join(p.dir, "wal-run")
	if err := copyDir(p.b.cfg.dataDir, runCopy); err != nil {
		return err
	}
	logDirs := []string{runCopy}
	if p.b.workload == "read-mix" {
		logDirs = logDirs[:0]
		for i := 0; i < readTenants; i++ {
			logDirs = append(logDirs, filepath.Join(runCopy, "tenants", tenantName(i)))
		}
	}
	var opened time.Duration
	var state []byte
	for _, d := range logDirs {
		t0 := time.Now()
		l, r, err := wal.Open(d, wal.Options{})
		if err != nil {
			return err
		}
		opened += time.Since(t0)
		if r.Snapshot != nil {
			state = r.Snapshot
		}
		if err := l.Close(); err != nil {
			return err
		}
	}
	p.set("wal.open_ms", float64(opened)/float64(time.Millisecond), "ms")
	if state == nil {
		state = []byte("{}")
	}

	// Replay the cycle records: hot types in group commits as the store
	// batches them, others one by one, snapshotting every
	// api.DefaultSnapshotEvery records as the store does.
	replay := filepath.Join(p.dir, "wal-replay")
	rl, _, err := wal.Open(replay, wal.Options{})
	if err != nil {
		return err
	}
	appendUS, snapMS := &sample{}, &sample{}
	dirty, snaps, op := 0, 0, 0
	step := func(n int, call func() error) error {
		t0 := time.Now()
		if err := call(); err != nil {
			return err
		}
		t1 := time.Now()
		p.tr.record("wal", "append", strconv.Itoa(op), t0, t1)
		op++
		appendUS.addDur(t1.Sub(t0), time.Microsecond)
		if dirty += n; dirty >= api.DefaultSnapshotEvery {
			t2 := time.Now()
			if err := rl.Snapshot(state); err != nil {
				return err
			}
			snapMS.addDur(time.Since(t2), time.Millisecond)
			snaps++
			dirty = 0
		}
		return nil
	}
	var batch []wal.BatchEntry
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		b := batch
		batch = nil
		return step(len(b), func() error { _, err := rl.AppendBatch(b); return err })
	}
	for _, r := range rec.Records {
		if hotRecord(r.Type) {
			batch = append(batch, wal.BatchEntry{Type: r.Type, Data: r.Data})
			if len(batch) == 64 {
				if err := flush(); err != nil {
					return err
				}
			}
			continue
		}
		if err := flush(); err != nil {
			return err
		}
		if err := step(1, func() error { _, err := rl.Append(r.Type, r.Data); return err }); err != nil {
			return err
		}
	}
	err = errors.Join(flush(), rl.Close())
	if err != nil {
		return err
	}
	if snapMS.n() == 0 {
		// Fewer records than one snapshot interval: time one anyway.
		l, _, err := wal.Open(replay, wal.Options{})
		if err != nil {
			return err
		}
		t0 := time.Now()
		err = l.Snapshot(state)
		snapMS.addDur(time.Since(t0), time.Millisecond)
		if err = errors.Join(err, l.Close()); err != nil {
			return err
		}
	}
	p.set("wal.append_us_p50", appendUS.median(), "us")
	p.set("wal.append_us_p99", appendUS.q(0.99), "us")
	p.set("wal.snapshot_ms_p50", snapMS.median(), "ms")
	p.set("wal.snapshots_per_1k_records", 1000*float64(snaps)/float64(max(1, len(rec.Records))), "count")
	return nil
}

// hotRecord names the record types the store group-commits.
func hotRecord(typ string) bool {
	switch typ {
	case "fleet.member", "scenario.progress", "campaign.seed":
		return true
	}
	return false
}

// walCycles journals the workload's unit of work a few times: deploy-day2
// cycles, one sim-fleet cycle, or one read-mix tenant's preload.
func (p *peeler) walCycles(ic *client) (int, error) {
	switch p.b.workload {
	case "deploy-day2":
		for j, s := range shapes(p.b.seed, streamShapes, peelWALDeploy) {
			if _, _, err := deployCycleOnce(ic, s, "", strconv.Itoa(j)); err != nil {
				return 0, err
			}
		}
		return peelWALDeploy, nil
	case "sim-fleet":
		for _, br := range []builtinRun{chaosRun, campusRun} {
			if _, err := runBuiltin(ic, br, "", true, "wal"); err != nil {
				return 0, err
			}
		}
		_, err := runCampaign(ic, campaignStarts(p.b.seed, 1)[0], "wal")
		return 1, err
	default:
		return 1, preloadTenant(ic, 0, shapes(p.b.seed, streamPreload, readDeployments))
	}
}

// httpOverhead sends each request over loopback TCP to handler h, served
// in this process, and straight into h through ic, back to back. The two
// see the same state and the same request, so the difference is the HTTP
// transport alone.
func (p *peeler) httpOverhead(h http.Handler, ic *client, reqs []request) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: h}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	tc := newClient("http://"+ln.Addr().String(), 1)
	err = func() error {
		for i, r := range reqs {
			op := strconv.Itoa(i)
			for _, via := range []*client{ic, tc} {
				t0 := time.Now()
				code, err := via.send(r, io.Discard)
				t1 := time.Now()
				if err == nil && (code < 200 || code > 299) {
					err = fmt.Errorf("%w: %s %s: status %d", errCheck, r.Method, r.Path, code)
				}
				if err != nil {
					return err
				}
				p.tr.recordReqs(via.layer, "http", op, 1, t0, t1)
			}
		}
		return nil
	}()
	tc.close()
	cerr := hs.Close()
	if serr := <-served; !errors.Is(serr, http.ErrServerClosed) {
		cerr = errors.Join(cerr, serr)
	}
	if err != nil {
		return err
	}
	p.set("http.overhead_us_p50", p.tr.selfTimes("tcp", "api", "http").median(), "us")
	return cerr
}

// residual compares the sum of self-time medians along the workload's
// blocking path with the end-to-end median of the same spans. The tcp
// hop is the per-request HTTP overhead times the requests the op sent:
// a whole op's TCP span minus its in-process replay would also hold the
// server's concurrency and the client's polling.
func (p *peeler) residual() {
	type hop struct{ upper, lower string }
	var name string
	var path []hop
	var bottom string
	switch p.b.workload {
	case "deploy-day2":
		name, path, bottom = "deploy_ready", []hop{{"api", "sdk"}, {"sdk", "core"}}, "core"
	case "sim-fleet":
		name, path, bottom = chaosRun.name, []hop{{"api", "sdk"}, {"sdk", "scenario"}}, "scenario"
	default:
		name, bottom = "read", "api"
	}
	reqs := &sample{}
	for _, s := range p.tr.spans {
		if s.Layer == "tcp" && s.Name == name {
			reqs.add(float64(s.Requests))
		}
	}
	sum := reqs.median() * p.layers["http.overhead_us_p50"].Value
	line(fmt.Sprintf("self_us_p50.tcp (%s, %.0f req)", name, reqs.median()), sum, "us", reqs.n())
	for _, h := range path {
		self := p.tr.selfTimes(h.upper, h.lower, name)
		line(fmt.Sprintf("self_us_p50.%s (%s)", h.upper, name), self.median(), "us", self.n())
		sum += self.median()
	}
	bot := p.tr.layerSample(bottom, name, time.Microsecond)
	line(fmt.Sprintf("self_us_p50.%s (%s)", bottom, name), bot.median(), "us", bot.n())
	sum += bot.median()
	e2e := p.tr.layerSample("tcp", name, time.Microsecond).median()
	p.set("trace.residual_pct", 100*(e2e-sum)/e2e, "%")
}

// copyDir copies a directory tree of regular files.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
