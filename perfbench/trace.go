package main

// The traced run (-trace 1). It measures the workload over TCP twice,
// once untraced and once with spans recorded around every operation, and
// then replays the workload's seeded operations at successive layer entry
// points in this process:
//
//	tcp    the repo-server child over loopback (the measured phase)
//	api    api.Open(cfg).Handler() with the same state, no network
//	sdk    pkg/xcbc Builder/Handle/Cluster/Fleet/RunScenario
//	core, orchestrator, fleet, scenario, campaign, depsolve, wal
//	       the internal packages' own entry points
//
// Spans are recorded only here, around calls into each layer; nothing in
// the program is instrumented. Every span carries the operation it
// served, so a layer's self time is its span minus the span one layer
// down for the same operation. All spans are written to a JSON-lines file
// when the run ends.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// span is one timed call into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // the span one layer up for the same op; 0 = none
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Op     string `json:"op"`
	// Requests is how many HTTP requests the op sent, on the tcp and
	// api layers; 0 elsewhere.
	Requests int   `json:"requests,omitempty"`
	Start    int64 `json:"start_ns"` // since the tracer began
	End      int64 `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layerOrder is the blocking path from the client down; a span's parent
// is the nearest layer above it that has a span for the same op.
var layerOrder = []string{"tcp", "api", "sdk", "orchestrator", "core", "scenario", "campaign", "depsolve", "fleet", "wal"}

type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record keeps one span; a nil tracer records nothing.
func (t *tracer) record(layer, name, op string, start, end time.Time) {
	t.recordReqs(layer, name, op, 0, start, end)
}

// recordReqs keeps one span of an op that sent reqs HTTP requests.
func (t *tracer) recordReqs(layer, name, op string, reqs int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Layer: layer, Name: name, Op: op, Requests: reqs,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.mu.Unlock()
}

// link sets every span's parent.
func (t *tracer) link() {
	rank := map[string]int{}
	for i, l := range layerOrder {
		rank[l] = i
	}
	byKey := map[string]map[int]int{} // name/op -> layer rank -> span ID
	for _, s := range t.spans {
		k := s.Name + "/" + s.Op
		if byKey[k] == nil {
			byKey[k] = map[int]int{}
		}
		if _, ok := byKey[k][rank[s.Layer]]; !ok {
			byKey[k][rank[s.Layer]] = s.ID
		}
	}
	for i, s := range t.spans {
		for r := rank[s.Layer] - 1; r >= 0; r-- {
			if id, ok := byKey[s.Name+"/"+s.Op][r]; ok {
				t.spans[i].Parent = id
				break
			}
		}
	}
}

// durations returns the span durations of one layer and name, by op.
func (t *tracer) durations(layer, name string) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		if s.Layer == layer && s.Name == name {
			if _, ok := out[s.Op]; !ok {
				out[s.Op] = s.dur()
			}
		}
	}
	return out
}

// selfTimes returns, per op that both layers traced, the upper layer's
// span minus the lower layer's span.
func (t *tracer) selfTimes(upper, lower, name string) *sample {
	u, l := t.durations(upper, name), t.durations(lower, name)
	s := &sample{}
	for _, op := range slices.Sorted(maps.Keys(u)) {
		if d, ok := l[op]; ok {
			s.addDur(u[op]-d, time.Microsecond)
		}
	}
	return s
}

func (t *tracer) layerSample(layer, name string, unit time.Duration) *sample {
	s := &sample{}
	for _, d := range t.durations(layer, name) {
		s.addDur(d, unit)
	}
	return s
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// inproc is an http.RoundTripper that serves requests straight from a
// handler: the client code is the same, the network is gone. The recorder
// buffers the whole answer, so streaming handlers (SSE) complete before
// the client reads.
type inproc struct{ h http.Handler }

func (t inproc) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// newInprocClient is a client of handler h whose spans are recorded at
// layer "api".
func newInprocClient(h http.Handler, tr *tracer) *client {
	return &client{hc: &http.Client{Transport: inproc{h}}, base: "http://inproc", tr: tr, layer: "api"}
}

// tracedRun measures fn untraced and traced over half the run's seconds
// each, then peels the layers in process.
func (b *bench) tracedRun(fn func(*bench) (*report, error)) (*report, error) {
	full := b.seconds
	b.seconds = max(full/2, 2*time.Second)
	b.traced = false
	ref, err := fn(b)
	b.traced = true
	if err != nil {
		return ref, err
	}
	b.srv.kill()
	b.srv = nil
	b.tr = newTracer()
	rep, err := fn(b)
	if err != nil {
		return rep, err
	}
	layers := rep.layers
	if layers == nil {
		layers = map[string]metric{}
	}
	refMain, tracedMain := ref.e2e["main_ms_block_mean"].Value, rep.e2e["main_ms_block_mean"].Value
	layers["trace.overhead_pct"] = metric{100 * (tracedMain - refMain) / refMain, "%"}
	layers["server.cpu_ms_per_op"] = rep.e2e["server_cpu_ms_per_op"]
	fmt.Printf("trace: untraced main_ms_block_mean %.4f, traced %.4f\n", refMain, tracedMain)

	p := &peeler{b: b, tr: b.tr, layers: layers, dir: filepath.Join(b.runDir, "peel")}
	if err := p.run(); err != nil {
		return rep, err
	}
	b.tr.link()
	path := filepath.Join(filepath.Dir(b.runDir), fmt.Sprintf("spans-%s-%d.jsonl", b.workload, b.seed))
	if err := b.tr.write(path); err != nil {
		return rep, err
	}
	fmt.Printf("trace: %d spans written to %s\n", len(b.tr.spans), path)
	for _, name := range slices.Sorted(maps.Keys(layers)) {
		line(name, layers[name].Value, layers[name].Unit, 0)
	}
	rep.layers = layers
	return rep, nil
}
