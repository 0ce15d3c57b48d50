package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strings"
)

// Everything a workload sends is drawn here from the run's seed, before
// any timing starts, so one seed always yields the same byte sequence.

func newRNG(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// Streams keep each generator's draws independent of the others.
const (
	streamShapes = iota + 1
	streamReads
	streamCampaign
	streamPreload
)

// buildable are the catalog machines Rocks can kickstart (the diskless
// limulus and littlefe-original are refused at preflight by design).
var buildable = []string{"howard", "kansas", "littlefe", "marshall", "montana", "pbarc"}

// rollSets are the optional-roll choices a deployment draws from; nil
// leaves the server default (ganglia, hpc) in force.
var rollSets = [][]string{nil, {}, {"ganglia", "hpc", "bio"}, {"hpc", "python", "perl"}}

// shape is one deployment request.
type shape struct {
	Cluster   string `json:"cluster"`
	Scheduler string `json:"scheduler"`
	// Rolls nil leaves the server default; empty asks for no optional
	// rolls, which the server distinguishes from an absent list.
	Rolls []string `json:"rolls"`
}

func (s shape) body() string {
	m := map[string]any{"cluster": s.Cluster, "scheduler": s.Scheduler}
	if s.Rolls != nil {
		m["rolls"] = s.Rolls
	}
	b, _ := json.Marshal(m) // plain strings and slices cannot fail
	return string(b)
}

// shapes draws n deployment requests over machines x {torque, slurm} x
// roll subsets. The draw is balanced: every run of len(shapeSpace)
// consecutive shapes is a seeded permutation of the whole space, so the
// mix of cheap and costly builds barely depends on the seed.
func shapes(seed uint64, stream uint64, n int) []shape {
	r := newRNG(seed, stream)
	space := shapeSpace()
	out := make([]shape, 0, n+len(space))
	for len(out) < n {
		r.Shuffle(len(space), func(i, j int) { space[i], space[j] = space[j], space[i] })
		out = append(out, space...)
	}
	return out[:n]
}

func shapeSpace() []shape {
	var out []shape
	for _, m := range buildable {
		for _, s := range []string{"torque", "slurm"} {
			for _, rs := range rollSets {
				out = append(out, shape{Cluster: m, Scheduler: s, Rolls: rs})
			}
		}
	}
	return out
}

// day2Jobs are the two jobs every deploy-day2 cycle submits; one core
// fits every buildable machine.
var day2Jobs = []string{
	`{"name":"bench-a","user":"bench","cores":1,"walltime":"1h","runtime":"20m"}`,
	`{"name":"bench-b","user":"bench","cores":1,"walltime":"2h","runtime":"45m"}`,
}

// deployCycle is the request sequence of one deploy-day2 cycle; {id}
// stands for the deployment the POST created.
func deployCycle(s shape) []request {
	return []request{
		{Method: "POST", Path: "/api/v1/deployments", Body: s.body(), Class: "create_deployment"},
		{Method: "GET", Path: "/api/v1/deployments/{id}/events", Class: "events"},
		{Method: "POST", Path: "/api/v1/clusters/{id}/jobs", Body: day2Jobs[0], Class: "submit_job"},
		{Method: "POST", Path: "/api/v1/clusters/{id}/jobs", Body: day2Jobs[1], Class: "submit_job"},
		{Method: "POST", Path: "/api/v1/clusters/{id}/advance", Body: `{"duration":"30m"}`, Class: "advance"},
		{Method: "GET", Path: "/api/v1/clusters/{id}/metrics", Class: "metrics"},
		{Method: "GET", Path: "/api/v1/clusters/{id}/jobs", Class: "jobs"},
		{Method: "GET", Path: "/api/v1/clusters/{id}/updates", Class: "updates"},
		{Method: "DELETE", Path: "/api/v1/deployments/{id}", Class: "delete_deployment"},
	}
}

// bind substitutes a created resource's ID into a request template.
func bind(r request, id string) request {
	r.Path = strings.ReplaceAll(r.Path, "{id}", id)
	return r
}

// builtinRun describes one built-in scenario the benchmark runs over
// HTTP, with its trace pinned: the scenario engine's golden trace for
// the built-in has exactly these events and this SHA-256. The fleet must
// carry the built-in's name, because seeded kickstart faults hash member
// IDs, which derive from the fleet name.
type builtinRun struct {
	name   string
	fleet  string // POST /fleets body
	events int
	sha256 string
}

var (
	chaosRun = builtinRun{
		name:   "chaos-kickstart",
		fleet:  `{"name":"chaos-kickstart","members":32,"cluster":"littlefe","nodes":4,"parallelism":2,"retries":1,"workers":8,"provision":false}`,
		events: 246,
		sha256: "7d574502d674d9b49bb1b73e633a58be611da7f90d08e2c0ef1f3c68543fff7c",
	}
	campusRun = builtinRun{
		name:   "campus-100",
		fleet:  `{"name":"campus-100","members":100,"cluster":"littlefe","nodes":4,"parallelism":4,"workers":8,"provision":false}`,
		events: 405,
		sha256: "6362c1340e5e119a2d580e4386ff7acdcc645d296c5edb931d293479b7cd10c7",
	}
	rollingRun = builtinRun{
		name:   "rolling-update",
		fleet:  `{"name":"rolling-update","members":20,"cluster":"littlefe","nodes":3,"parallelism":3,"workers":8,"provision":false}`,
		events: 105,
		sha256: "290a5af90d9142a38fbac56592c8a89005b85dfa62840b4fa166b20834ace313",
	}
)

// campaignSeeds is the size of the sim-fleet campaign; campaignWorkers
// its worker pool.
const (
	campaignSeeds   = 32
	campaignWorkers = 2
)

// campaignStarts lists n campaign start seeds: the 32-seed blocks of the
// 4096 seeds the generator is known to sweep clean, each block once per
// seeded permutation, so every run sweeps nearly the same scenarios.
func campaignStarts(seed uint64, n int) []int64 {
	r := newRNG(seed, streamCampaign)
	blocks := make([]int64, 4096/campaignSeeds)
	for i := range blocks {
		blocks[i] = int64(i * campaignSeeds)
	}
	out := make([]int64, 0, n+len(blocks))
	for len(out) < n {
		r.Shuffle(len(blocks), func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })
		out = append(out, blocks...)
	}
	return out[:n]
}

// Read-mix population: tenants x deployments, each deployment with one
// submitted job, plus one settled rolling-update fleet per tenant.
const (
	readTenants        = 16
	readDeployments    = 40
	readPageLimit      = 20
	readTracePageLimit = 50
)

func tenantName(i int) string { return fmt.Sprintf("t%02d", i) }
func tenantKey(i int) string  { return fmt.Sprintf("perfbench-key-%02d", i) }

// installLists are the depsolve requests of the read mix; each resolves.
var installLists = [][]string{
	{"gromacs"},
	{"lammps", "petsc"},
	{"abyss", "mpiblast"},
	{"slepc", "mpi4py-openmpi"},
	{"gromacs", "espresso-ab", "mrbayes"},
}

func installBody(names []string) string {
	b, _ := json.Marshal(map[string][]string{"install": names}) // cannot fail
	return string(b)
}

// readClasses are the read mix's route classes. Each request draws one
// uniformly: no traffic has been observed that would weight them, so the
// equal shares are an assumption, not a measurement.
var readClasses = []string{
	"list_deployments", "list_deployments_p2", "list_clusters", "list_fleets",
	"get_deployment", "get_cluster", "get_jobs", "get_fleet",
	"run_page", "depsolve", "discovery", "store",
}

// readMix draws n read requests, each carrying a seeded tenant's key.
// IDs are the preload's: every tenant holds d1..d40, fleet f1 and its
// run s1, whose trace has rollingRun.events entries.
func readMix(seed uint64, n int) []request {
	r := newRNG(seed, streamReads)
	out := make([]request, n)
	for i := range out {
		class := readClasses[r.IntN(len(readClasses))]
		t := r.IntN(readTenants)
		d := 1 + r.IntN(readDeployments)
		req := request{Method: "GET", Key: tenantKey(t), Class: class}
		switch class {
		case "list_deployments":
			req.Path = fmt.Sprintf("/api/v1/deployments?limit=%d", readPageLimit)
		case "list_deployments_p2":
			req.Path = fmt.Sprintf("/api/v1/deployments?limit=%d&cursor=%d", readPageLimit, readPageLimit)
		case "list_clusters":
			req.Path = "/api/v1/clusters"
		case "list_fleets":
			req.Path = "/api/v1/fleets"
		case "get_deployment":
			req.Path = fmt.Sprintf("/api/v1/deployments/d%d", d)
		case "get_cluster":
			req.Path = fmt.Sprintf("/api/v1/clusters/d%d", d)
		case "get_jobs":
			req.Path = fmt.Sprintf("/api/v1/clusters/d%d/jobs", d)
		case "get_fleet":
			req.Path = "/api/v1/fleets/f1"
		case "run_page":
			req.Path = fmt.Sprintf("/api/v1/fleets/f1/scenarios/s1?cursor=%d&limit=%d",
				r.IntN(rollingRun.events), readTracePageLimit)
		case "depsolve":
			req.Method, req.Path = "POST", "/api/v1/depsolve"
			req.Body = installBody(installLists[r.IntN(len(installLists))])
		case "discovery":
			req.Path = "/api/v1"
		case "store":
			req.Path = "/api/v1/store"
		}
		out[i] = req
	}
	return out
}
