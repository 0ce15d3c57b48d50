package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// client is the benchmark's HTTP client. It holds at most conns
// connections to the server, one per concurrent caller.
type client struct {
	hc   *http.Client
	base string
	// attempted and failed count the calls made through call and
	// awaitReady: the operations a closed-loop workload reports.
	attempted, failed atomic.Int64
	// tr, when set, records a span per workload operation at layer.
	tr    *tracer
	layer string
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, base: base, layer: "tcp"}
}

// span records one operation of this client that sent reqs requests,
// when tracing.
func (c *client) span(name, op string, reqs int, start, end time.Time) {
	c.tr.recordReqs(c.layer, name, op, reqs, start, end)
}

func (c *client) close() { c.hc.Transport.(*http.Transport).CloseIdleConnections() }

// request is one prebuilt API call.
type request struct {
	Method string `json:"method"`
	Path   string `json:"path"`
	Body   string `json:"body,omitempty"`
	Key    string `json:"key,omitempty"` // tenant API key, "" in open mode
	Class  string `json:"class"`         // route family, for per-route figures
}

// send sends one request and copies the answer's body to w.
func (c *client) send(r request, w io.Writer) (int, error) {
	var body io.Reader
	if r.Body != "" {
		body = strings.NewReader(r.Body)
	}
	req, err := http.NewRequest(r.Method, c.base+r.Path, body)
	if err != nil {
		return 0, err
	}
	if r.Body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	if r.Key != "" {
		req.Header.Set("X-API-Key", r.Key)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = io.Copy(w, resp.Body)
	return resp.StatusCode, err
}

// countingDiscard counts and drops what it is written.
type countingDiscard struct{ n int64 }

func (d *countingDiscard) Write(p []byte) (int, error) {
	d.n += int64(len(p))
	return len(p), nil
}

// call sends r and decodes a JSON answer into out (when non-nil), failing
// unless the status is want.
func (c *client) call(r request, want int, out any) error {
	c.attempted.Add(1)
	err := c.decode(r, want, out)
	if err != nil {
		c.failed.Add(1)
	}
	return err
}

func (c *client) decode(r request, want int, out any) error {
	var buf bytes.Buffer
	code, err := c.send(r, &buf)
	data := buf.Bytes()
	if err != nil {
		return fmt.Errorf("%s %s: %w", r.Method, r.Path, err)
	}
	if code != want {
		return fmt.Errorf("%s %s: status %d, want %d: %s", r.Method, r.Path, code, want, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("%s %s: decoding answer: %w", r.Method, r.Path, err)
		}
	}
	return nil
}

// awaitReady follows a deployment's event stream and requires it to
// settle ready.
func (c *client) awaitReady(id, key string) error {
	c.attempted.Add(1)
	state, err := c.awaitSettled(id, key)
	if err == nil && state != "ready" {
		err = fmt.Errorf("%w: deployment %s settled %q", errCheck, id, state)
	}
	if err != nil {
		c.failed.Add(1)
	}
	return err
}

// awaitSettled follows a deployment's Server-Sent Events stream until its
// terminal `event: state` frame and returns the settled state.
func (c *client) awaitSettled(id, key string) (string, error) {
	req, err := http.NewRequest("GET", c.base+"/api/v1/deployments/"+id+"/events", nil)
	if err != nil {
		return "", err
	}
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events %s: status %d", id, resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	terminal := false
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return "", fmt.Errorf("events %s: stream ended before the terminal frame: %w", id, err)
		}
		line = strings.TrimRight(line, "\n")
		if line == "event: state" {
			terminal = true
			continue
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok && terminal {
			var final struct {
				State string `json:"state"`
				Error string `json:"error"`
			}
			if err := json.Unmarshal([]byte(data), &final); err != nil {
				return "", fmt.Errorf("events %s: terminal frame: %w", id, err)
			}
			if final.Error != "" {
				return final.State, fmt.Errorf("deployment %s settled %s: %s", id, final.State, final.Error)
			}
			// Drain the rest so the connection returns to the pool.
			_, _ = io.Copy(io.Discard, br)
			return final.State, nil
		}
	}
}

// schedule is an open loop's send plan: request i is due at start + i/rate.
type schedule struct {
	start time.Time
	rate  float64 // requests per second
}

func (s schedule) due(i int) time.Time {
	return s.start.Add(time.Duration(float64(i) * float64(time.Second) / s.rate))
}

// count is how many requests fall inside a window of length d.
func (s schedule) count(d time.Duration) int {
	return int(d.Seconds() * s.rate)
}

// openResult is what an open-loop run measured.
type openResult struct {
	latency  timed  // ms, from each request's due time to its answer
	late     sample // µs, how late the generator dispatched each request
	byClass  map[string]*timed
	bytes    int64 // response bytes received
	sent     int
	failures []string
	elapsed  time.Duration
}

// openLoop sends reqs round-robin at a fixed rate for d over conns
// connections; any answer outside 2xx is a failure. A dispatcher wakes at each due time and hands the request
// to a free connection; latency runs from the due time, so a stall that
// delays later requests is charged to them (coordinated-omission
// correction), while the dispatcher's own wake-up delay is reported apart
// as generator lateness.
func openLoop(c *client, reqs []request, rate float64, start time.Time, d time.Duration, conns int) *openResult {
	sch := schedule{start: start, rate: rate}
	n := sch.count(d)
	res := &openResult{byClass: map[string]*timed{}, sent: n}
	lat := make([]float64, n)
	ok := make([]bool, n)
	nbytes := make([]int64, n)
	errs := make([]string, n)
	// Sized to the number of sends, so the dispatcher never blocks on a
	// busy connection and its lateness stays its own.
	jobs := make(chan int, n)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				r := reqs[i%len(reqs)]
				var body countingDiscard
				sent := time.Now()
				code, err := c.send(r, &body)
				now := time.Now()
				c.span("read", strconv.Itoa(i), 1, sent, now)
				lat[i] = float64(now.Sub(sch.due(i))) / float64(time.Millisecond)
				nbytes[i] = body.n
				if err == nil && (code < 200 || code > 299) {
					err = fmt.Errorf("%s %s: status %d", r.Method, r.Path, code)
				}
				if err != nil {
					errs[i] = err.Error()
				} else {
					ok[i] = true
				}
			}
		}()
	}
	// The dispatcher sleeps in the kernel on its own thread: the Go
	// timer wheel wakes idle processes at millisecond granularity, which
	// would add up to a millisecond of lateness to every request.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	setTimerSlack(1)
	for i := 0; i < n; i++ {
		due := sch.due(i)
		sleepUntil(due)
		res.late.addDur(time.Since(due), time.Microsecond)
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	res.elapsed = time.Since(sch.start)
	for i := 0; i < n; i++ {
		res.bytes += nbytes[i]
		if !ok[i] {
			res.failures = append(res.failures, errs[i])
			continue
		}
		at := sch.due(i).Sub(start)
		res.latency.add(at, lat[i])
		cl := reqs[i%len(reqs)].Class
		if res.byClass[cl] == nil {
			res.byClass[cl] = &timed{}
		}
		res.byClass[cl].add(at, lat[i])
	}
	return res
}

// sleepUntil blocks the calling thread in nanosleep until t.
func sleepUntil(t time.Time) {
	for {
		wait := time.Until(t)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}

// setTimerSlack sets the calling thread's timer slack (PR_SET_TIMERSLACK),
// which otherwise lets the kernel defer a nanosleep wake-up by 50µs.
func setTimerSlack(ns uintptr) {
	const prSetTimerSlack = 29
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, ns, 0) // best effort
}

// closedLoop runs clients concurrent callers, each repeating cycle until
// d has passed; a cycle started before the deadline runs to its end. The
// first error stops every caller. It returns completed cycles per caller
// and the wall time until the last caller finished.
// gaps, when non-nil, receives each caller's idle time between the end of
// one cycle and the start of the next, in µs: a closed loop's generator
// lateness.
func closedLoop(clients int, d time.Duration, gaps *sample, cycle func(worker, iter int) error) ([]int, time.Duration, error) {
	start := time.Now()
	deadline := start.Add(d)
	done := make([]int, clients)
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var ended time.Time
			for i := 0; time.Now().Before(deadline) && !failed(); i++ {
				if gaps != nil && i > 0 {
					mu.Lock()
					gaps.addDur(time.Since(ended), time.Microsecond)
					mu.Unlock()
				}
				err := cycle(w, i)
				ended = time.Now()
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("client %d cycle %d: %w", w, i, err)
					}
					mu.Unlock()
					return
				}
				done[w]++
			}
		}(w)
	}
	wg.Wait()
	return done, time.Since(start), firstErr
}

// errCheck marks an output check that failed: the run is wrong, not slow.
var errCheck = errors.New("output check failed")
