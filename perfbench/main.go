// Command perfbench is the repository's end-to-end benchmark. It starts
// cmd/repo-server as a child process on loopback TCP with a fresh durable
// data directory (default WAL policy: fsync every 32 records, snapshot
// every 256), drives one named workload against it from this process,
// checks every answer, and prints each metric with its unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run is traced and reports per-layer figures instead (see trace.go).
// Build and run it through run.sh from the repository root; README.md
// maps every metric to the workload and layer it measures.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"xcbc/internal/wal"
	"xcbc/pkg/xcbc/api"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one benchmark invocation.
type bench struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	cfg      serverConfig // template for every child start
	runDir   string
	srv      *server // the child the measured phase runs against
	tr       *tracer // spans of a traced run
}

// report is what a workload measured: e2e holds the end-to-end metrics
// BENCHMARK.json names, layers the per-layer ones of a traced run.
type report struct {
	e2e       map[string]metric
	layers    map[string]metric
	attempted int
	failed    int
	correct   bool
}

var workloads = map[string]func(*bench) (*report, error){
	"deploy-day2": (*bench).deployDay2,
	"sim-fleet":   (*bench).simFleet,
	"read-mix":    (*bench).readMixRun,
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "deploy-day2, sim-fleet or read-mix")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	serverBin := flag.String("server", "", "repo-server binary")
	work := flag.String("work", ".bench_build", "directory for data dirs, logs and span files")
	flag.Parse()

	fn, ok := workloads[*workload]
	if !ok || *serverBin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -server BIN -workload deploy-day2|sim-fleet|read-mix -seed N -seconds S -trace 0|1")
		return 2
	}
	offered, cpu, err := pinToOneCPU()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: pinning to one CPU:", err)
		return 1
	}
	stealCPU = "cpu" + strconv.Itoa(cpu)
	abs, err := filepath.Abs(*work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	runDir, err := os.MkdirTemp(abs, "run-"+*workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(runDir)

	// One CPU, but as many Ps as the machine offered: with a single P a
	// goroutine that computes holds off every other one until it is
	// preempted, up to 10ms later, and answers would wait for that.
	maxprocs := offered
	runtime.GOMAXPROCS(maxprocs)
	// The client should spend as little CPU as it can on a machine it
	// shares with the server; its heap is small, so collect less often.
	debug.SetGCPercent(400)
	b := &bench{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		runDir:   runDir,
		cfg: serverConfig{
			bin:      *serverBin,
			dataDir:  filepath.Join(runDir, "data"),
			logPath:  filepath.Join(runDir, "server.log"),
			maxprocs: maxprocs,
		},
	}
	printMeta(b, offered, cpu)
	var rep *report
	if b.traced {
		rep, err = b.tracedRun(fn)
	} else {
		rep, err = fn(b)
	}
	if b.srv != nil {
		b.srv.kill()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if log, rerr := os.ReadFile(b.cfg.logPath); rerr == nil && len(log) > 0 {
			fmt.Fprintf(os.Stderr, "repo-server log:\n%s", tail(log, 2000))
		}
		if rep == nil || !errors.Is(err, errCheck) {
			return 1
		}
		// An output check failed: report the counts, then fail the run.
		rep.correct = false
	}
	res := result{Correct: rep.correct, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.e2e}
	if b.traced {
		res.Metrics = rep.layers
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.correct || rep.failed > 0 {
		return 1
	}
	return 0
}

func tail(b []byte, n int) []byte {
	if len(b) > n {
		return b[len(b)-n:]
	}
	return b
}

// line prints one human-readable metric line.
func line(name string, value float64, unit string, n int) {
	if n > 0 {
		fmt.Printf("  %-34s %14.4f %-6s n=%d\n", name, value, unit, n)
		return
	}
	fmt.Printf("  %-34s %14.4f %s\n", name, value, unit)
}

// printMeta records the machine and configuration every result depends on.
func printMeta(b *bench, offered, cpu int) {
	meta := map[string]any{
		"workload":           b.workload,
		"seed":               b.seed,
		"seconds":            b.seconds.Seconds(),
		"traced":             b.traced,
		"cpus_offered":       offered,
		"pinned_cpu":         cpu,
		"nproc":              runtime.NumCPU(), // nproc(1) reads the same affinity mask
		"cgroup_cpu_max":     cgroupCPUMax(),
		"gomaxprocs_bench":   runtime.GOMAXPROCS(0),
		"gomaxprocs_server":  b.cfg.maxprocs,
		"go_version":         runtime.Version(),
		"cpu_model":          cpuModel(),
		"kernel":             kernel(),
		"data_dir_fs":        fsType(b.runDir),
		"wal_fsync_every":    wal.DefaultSyncEvery,
		"wal_snapshot_every": api.DefaultSnapshotEvery,
	}
	data, _ := json.Marshal(meta) // plain values cannot fail
	fmt.Printf("meta %s\n", data)
}
