package main

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// clock is the driver's time source; tests inject a fake one.
type clock interface {
	Now() time.Time
	// SleepUntil returns no earlier than t.
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// job is one unit of client work. Its latency is measured from due, the
// moment it was scheduled to start — not from when a connection became free
// — so time spent waiting in the driver's queue behind a stall counts.
type job struct {
	due time.Time
	run func(j *job)
}

// lagLog records, per open-loop arrival, how late the generator released it
// (lag: the generator's own schedule slip) and how long it then waited for a
// free connection (wait: from due to start).
type lagLog struct {
	mu   sync.Mutex
	lag  []float64 // ms, in arrival order
	wait []waitSample
}

type waitSample struct {
	due  time.Duration // offset of the due time from the phase start
	wait float64       // ms
}

func (l *lagLog) addLag(ms float64) {
	l.mu.Lock()
	l.lag = append(l.lag, ms)
	l.mu.Unlock()
}

func (l *lagLog) addWait(due time.Duration, ms float64) {
	l.mu.Lock()
	l.wait = append(l.wait, waitSample{due, ms})
	l.mu.Unlock()
}

// maxWaitGrowthMs is how much the median queue wait of the last quarter of
// a phase may exceed that of the first quarter before the run is declared
// invalid: a growing wait means the offered rate is above what the program
// sustains, and latencies then measure the backlog, not the program.
const maxWaitGrowthMs = 100

// growth returns the median wait of the last quarter of arrivals (by due
// time) minus that of the first quarter, in ms.
func (l *lagLog) growth() float64 {
	l.mu.Lock()
	w := append([]waitSample(nil), l.wait...)
	l.mu.Unlock()
	if len(w) < 8 {
		return 0
	}
	sort.Slice(w, func(i, j int) bool { return w[i].due < w[j].due })
	q := len(w) / 4
	first := make([]float64, 0, q)
	last := make([]float64, 0, q)
	for i := 0; i < q; i++ {
		first = append(first, w[i].wait)
		last = append(last, w[len(w)-q+i].wait)
	}
	return medianOf(last) - medianOf(first)
}

func (l *lagLog) valid() bool { return l.growth() <= maxWaitGrowthMs }

func (l *lagLog) waits() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]float64, len(l.wait))
	for i, w := range l.wait {
		out[i] = w.wait
	}
	return out
}

func (l *lagLog) lags() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]float64(nil), l.lag...)
}

// poissonOffsets draws the arrival offsets of a Poisson process at rate per
// second over the window, conditioned on its expected count: that many
// uniform points, sorted. Given its count a Poisson process is exactly
// this, and fixing the count keeps every seed's sample sizes — and so the
// percentile a tail metric is read at — the same.
func poissonOffsets(rng *rand.Rand, rate float64, window time.Duration) []time.Duration {
	n := int(math.Round(rate * window.Seconds()))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Int64N(int64(window)))
	}
	slices.Sort(out)
	return out
}

// openLoop releases one job per arrival at its absolute due time
// (start + offset) — never relative to the previous release, so a late
// wake-up does not shift every later arrival — and runs them on workers
// goroutines, each standing for one client connection. It returns once
// every job has finished.
func openLoop(clk clock, start time.Time, offsets []time.Duration, workers int, lags *lagLog, mk func(i int) func(j *job)) {
	// Arrivals that find every connection busy wait in q; it holds every
	// arrival, so the generator never blocks on a send.
	q := make(chan *job, len(offsets))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range q {
				lags.addWait(j.due.Sub(start), ms(clk.Now().Sub(j.due)))
				j.run(j)
			}
		}()
	}
	for i, off := range offsets {
		due := start.Add(off)
		clk.SleepUntil(due)
		lags.addLag(ms(clk.Now().Sub(due)))
		q <- &job{due: due, run: mk(i)}
	}
	close(q)
	wg.Wait()
}

// closedLoop runs clients goroutines that each issue their next operation
// as soon as the previous one completes, until the deadline; step runs one
// operation (or one dependent sequence of them) for client c and returns how
// many requests it completed. closedLoop returns the total and the median
// completion rate per second over slices of length seg, so a collection
// cycle or a scheduling hiccup in one slice does not move the result.
func closedLoop(clients int, deadline time.Time, seg time.Duration, step func(c int) int) (int, float64) {
	var done atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				done.Add(int64(step(c)))
			}
		}(c)
	}
	var rates []float64
	tick := time.NewTicker(seg)
	last := int64(0)
	for now := range tick.C {
		if !now.Before(deadline) {
			break
		}
		n := done.Load()
		rates = append(rates, float64(n-last)/seg.Seconds())
		last = n
	}
	tick.Stop()
	wg.Wait()
	total := int(done.Load())
	if len(rates) == 0 {
		return total, 0
	}
	return total, medianOf(rates)
}
