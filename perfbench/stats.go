package main

import (
	"math"
	"slices"
	"time"
)

// sample collects one timing series. Quantiles use the nearest-rank
// method, so every reported value is one that was actually measured.
type sample struct {
	xs []float64
}

func (s *sample) add(v float64) { s.xs = append(s.xs, v) }

func (s *sample) addDur(d time.Duration, unit time.Duration) {
	s.add(float64(d) / float64(unit))
}

func (s *sample) n() int { return len(s.xs) }

// q returns the nearest-rank q-quantile (0 < q <= 1), NaN when empty.
func (s *sample) q(q float64) float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	sorted := slices.Clone(s.xs)
	slices.Sort(sorted)
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func (s *sample) median() float64 { return s.q(0.5) }

// Noise control. The machines this benchmark runs on are often virtual
// and shared: the hypervisor and other tenants take CPU time in bursts
// (steal, busy sibling hyperthreads), and that only ever slows a run
// down. So the closed loops run one client, which leaves the server a
// spare CPU instead of saturating the machine, where a little lost CPU
// turns into a lot of queueing; and the measured phase is cut into
// phaseBlocks equal blocks. A latency figure is the mean of the
// observations that began in each block, taken over blocks at the
// blockQ quantile. Means, not per-operation quantiles, because several
// operations have two modes (a journal fsync or snapshot, a costly
// shape) and a quantile jumps between them; block means move smoothly
// with the mix and still count every slow operation. A burst that slows
// a few blocks moves only those, and the quantile passes over them.
const (
	phaseBlocks = 20
	blockQ      = 0.5
)

// windowWidth is the period at which the server's peak RSS and the
// machine's steal are sampled.
const windowWidth = 50 * time.Millisecond

// windowSampler samples steal and the server's peak RSS at every window
// boundary over n windows.
type windowSampler struct {
	done  chan struct{}
	steal sample // per window, percent
	peak  sample // server VmHWM per window, MB
}

func startWindows(start time.Time, n int, srv *server) *windowSampler {
	w := &windowSampler{done: make(chan struct{})}
	_ = srv.resetPeakRSS() // a failed reset leaves the run-long peak
	go func() {
		defer close(w.done)
		m := startSteal()
		for i := 1; i <= n; i++ {
			time.Sleep(time.Until(start.Add(time.Duration(i) * windowWidth)))
			w.steal.add(m.pct())
			m = startSteal()
			if peak, err := srv.peakRSSMB(); err == nil {
				w.peak.add(peak)
			}
			_ = srv.resetPeakRSS()
		}
	}()
	return w
}

// wait blocks until the last window has been sampled.
func (w *windowSampler) wait() { <-w.done }

// timed is a timing series whose observations remember when they began.
type timed struct {
	at []time.Duration // since the phase start
	v  []float64
}

func (t *timed) add(at time.Duration, v float64) {
	t.at = append(t.at, at)
	t.v = append(t.v, v)
}

func (t *timed) all() *sample { return &sample{xs: slices.Clone(t.v)} }

// blockMeans returns the mean of the observations that began in each of
// n equal blocks of a phase of length d; a block without observations
// has no mean. steal holds the phase's per-window steal percentages on
// the benchmark's CPU; each block's mean is scaled by the share of its
// windows' time the hypervisor left that CPU. The benchmark's work is
// all on that one CPU (see pin.go) and keeps it busy, so time stolen from
// it is time every operation then running waited, however the
// hypervisor's other guests behaved.
func (t *timed) blockMeans(d time.Duration, n int, steal []float64) *sample {
	sum, cnt := make([]float64, n), make([]int, n)
	for i, at := range t.at {
		b := max(0, min(int(int64(at)*int64(n)/int64(d)), n-1))
		sum[b] += t.v[i]
		cnt[b]++
	}
	s := &sample{}
	for b := range sum {
		if cnt[b] == 0 {
			continue
		}
		lo, hi := b*len(steal)/n, (b+1)*len(steal)/n
		stolen := 0.0
		for _, pct := range steal[lo:hi] {
			stolen += pct / 100 / float64(hi-lo)
		}
		s.add(sum[b] / float64(cnt[b]) * (1 - stolen))
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
