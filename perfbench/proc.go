package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one repo-server child process on loopback TCP.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	exited chan struct{}
	log    *os.File
}

// serverConfig is what every start of the child needs.
type serverConfig struct {
	bin      string // repo-server binary
	dataDir  string
	tenants  string // tenants JSON file, "" for open mode
	logPath  string // child stdout+stderr
	maxprocs int    // GOMAXPROCS pinned for the child
}

// freeAddr reserves a loopback port long enough to learn its number.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startServer launches the child and returns once /api/v1/healthz answers
// 200, which on a durable server means recovery has finished. A port
// taken between reservation and bind is retried on a fresh port.
func startServer(cfg serverConfig) (*server, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		s, err := launch(cfg)
		if err == nil {
			return s, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func launch(cfg serverConfig) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", addr, "-quiet", "-data-dir", cfg.dataDir}
	if cfg.tenants != "" {
		args = append(args, "-tenants", cfg.tenants)
	}
	logf, err := os.OpenFile(cfg.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(cfg.bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(cfg.maxprocs))
	cmd.Stdout, cmd.Stderr = logf, logf
	// The child must not outlive the benchmark, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, exited: make(chan struct{}), log: logf}
	go func() {
		_ = cmd.Wait() // the exit status is judged by whoever stops the child
		close(s.exited)
	}()
	if err := s.awaitHealthy(2 * time.Minute); err != nil {
		s.kill()
		return nil, err
	}
	return s, nil
}

func (s *server) awaitHealthy(limit time.Duration) error {
	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{Proxy: nil, DisableKeepAlives: true}}
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return fmt.Errorf("repo-server exited during start-up (see %s)", s.log.Name())
		default:
		}
		resp, err := hc.Get(s.base + "/api/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(250 * time.Microsecond)
	}
	return errors.New("repo-server did not become healthy in time")
}

// kill sends SIGKILL and waits for the process to be reaped.
func (s *server) kill() {
	_ = s.cmd.Process.Signal(syscall.SIGKILL) // fails only if already gone
	<-s.exited
	s.log.Close()
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// peakRSSMB is the child's VmHWM from /proc, in MiB.
func (s *server) peakRSSMB() (float64, error) { return s.statusMB("VmHWM:") }

// resetPeakRSS restarts the child's VmHWM from its current RSS (writing 5
// to /proc/<pid>/clear_refs), so peaks can be read per window.
func (s *server) resetPeakRSS() error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", s.pid()), []byte("5"), 0)
}

func (s *server) statusMB(field string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.pid()))
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// cpuTime is the child's user+system CPU time from /proc/<pid>/stat, in
// clock ticks of 1/100 s (USER_HZ, fixed at 100 on Linux).
func (s *server) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.pid()))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ')'.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}
