package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"sync"
	"testing"
	"time"

	"poiesis/internal/loadgen"
)

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n       int
		pct     float64
		tail    float64
		comment string
	}{
		{1000, 0.99, 990, "exactly ten samples beyond p99"},
		{999, 0.95, 950, "nine beyond p99, so p95"},
		{200, 0.95, 190, "two beyond p99, ten beyond p95"},
		{40, 0.75, 30, "p90 leaves four"},
		{20, 0.50, 10, "p50 leaves ten"},
		{19, 0.50, 10, "nothing qualifies: the tail is the median"},
		{1, 0.50, 1, "a single sample"},
	} {
		tail, pct := tailOf(seq(tc.n))
		if pct != tc.pct || tail != tc.tail {
			t.Errorf("n=%d (%s): got p%g tail=%g, want p%g tail=%g",
				tc.n, tc.comment, 100*pct, tail, 100*tc.pct, tc.tail)
		}
	}
	if s := summarize(nil); s.N != 0 || s.Tail != 0 {
		t.Errorf("empty: %+v", s)
	}
}

func TestTailIsTheMedianOfBlockTails(t *testing.T) {
	// tailBlocks blocks of 200 samples in the order taken; each block's p95
	// has ten samples beyond it. Block 2 is a slow stretch: ten times
	// slower.
	var xs, want []float64
	for b := 0; b < tailBlocks; b++ {
		scale := 1.0
		if b == 2 {
			scale = 10
		}
		for i := 1; i <= 200; i++ {
			xs = append(xs, scale*float64(i))
		}
		want = append(want, scale*190)
	}
	median := medianOf(xs)
	s := summarize(xs)
	// Block p95s are 190 but for the slow block's 1900: the median ignores
	// it, where a p99 over all the samples would read 1920.
	if n := 200 * tailBlocks; s.N != n || !slices.Equal(s.BlockTails, want) || s.TailPct != 0.95 || s.Tail != 190 {
		t.Errorf("got n=%d block tails %v p%g tail=%g, want n=%d block tails %v p95 tail=190",
			s.N, s.BlockTails, 100*s.TailPct, s.Tail, n, want)
	}
	if s.Median != median {
		t.Errorf("median %g, want the median over all samples, %g", s.Median, median)
	}
	// Fewer samples than blocks: one sample per block.
	if s := summarize([]float64{3, 1, 2}); len(s.BlockTails) != 3 || s.Tail != 2 || s.TailPct != 0.5 {
		t.Errorf("three samples: %+v", s)
	}
}

func TestServedMixesFollowLoadgenDefaultMix(t *testing.T) {
	m := loadgen.DefaultMix()
	total := float64(m[loadgen.OpGet] + m[loadgen.OpPlan] + m[loadgen.OpSSE] + m[loadgen.OpSelect])
	get := float64(m[loadgen.OpGet]) / 3 / total
	want := [numReadsOps]float64{
		opDetail: get, opSkyline: get, opResult: get,
		opPlan:   float64(m[loadgen.OpPlan]) / total,
		opSSE:    float64(m[loadgen.OpSSE]) / total,
		opSelect: float64(m[loadgen.OpSelect]) / total,
	}
	cum := readsMix()
	prev := 0.0
	for k, c := range cum {
		if got := c - prev; math.Abs(got-want[k]) > 1e-12 {
			t.Errorf("session-reads op %d has share %g, want %g", k, got, want[k])
		}
		prev = c
	}
	if cum[numReadsOps-1] != 1 {
		t.Errorf("shares sum to %g, want 1", cum[numReadsOps-1])
	}
	sse := float64(m[loadgen.OpSSE]) / float64(m[loadgen.OpSSE]+m[loadgen.OpPlan])
	if got := churnSSEShare(); got != sse {
		t.Errorf("session-churn SSE share %g, want %g", got, sse)
	}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "core.plan", Start: 0, End: 100},
		// Two workers overlap on [30,40); a third child runs past the
		// parent's end, which must not count.
		{ID: 2, Parent: 1, Name: "fcp.apply", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "fcp.apply", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "fcp.apply", Start: 80, End: 120},
		{ID: 5, Parent: 2, Name: "inner", Start: 15, End: 20},
	}
	self := selfTimes(spans)
	// Covered: [10,60) = 50 plus [80,100) = 20.
	if got := self[1]; got != 30 {
		t.Errorf("parent self time %d, want 30 (a sum of children would give 0 or less)", got)
	}
	if got := self[2]; got != 25 {
		t.Errorf("child self time %d, want 25", got)
	}
	if got := self[3]; got != 30 {
		t.Errorf("leaf self time %d, want its duration 30", got)
	}
}

func TestLinkByRIDRebuildsTheRequestTree(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client", RID: "a", Start: 0, End: 100},
		{ID: 2, Name: "handler", RID: "a", Node: "r0", Start: 5, End: 95},
		{ID: 3, Name: "handler", RID: "a", Node: "r1", Start: 10, End: 90},
		{ID: 4, Name: "handler", RID: "a", Node: "r2", Class: "cache_get", Start: 20, End: 30},
		{ID: 5, Name: "handler", RID: "b", Start: 10, End: 20},
	}
	linkByRID(spans)
	want := map[int64]int64{1: 0, 2: 1, 3: 2, 4: 3, 5: 0}
	for _, s := range spans {
		if s.Parent != want[s.ID] {
			t.Errorf("span %d parent %d, want %d", s.ID, s.Parent, want[s.ID])
		}
	}
}

// fakeClock only moves when the generator sleeps: SleepUntil jumps to the
// target (if it is ahead) and then adds the next injected delay, standing
// for a late wake-up.
type fakeClock struct {
	mu     sync.Mutex
	now    time.Time
	delays []time.Duration
	calls  int
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
	c.now = c.now.Add(c.delays[c.calls%len(c.delays)])
	c.calls++
}

func TestLagAccountingUnderInjectedClock(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start, delays: []time.Duration{0, 50 * time.Millisecond, 0, 0}}
	offsets := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 100 * time.Millisecond}
	lags := &lagLog{}
	var mu sync.Mutex
	var ran []time.Time
	openLoop(clk, start, offsets, 2, lags, func(i int) func(*job) {
		return func(j *job) {
			mu.Lock()
			ran = append(ran, j.due)
			mu.Unlock()
		}
	})
	// Arrival 1 wakes 50ms late. Arrival 2 is still due at its absolute
	// time, 10ms after arrival 1's, so it is released 40ms late; arrival 3
	// is back on schedule. A relative schedule would have shifted both.
	want := []float64{0, 50, 40, 0}
	got := lags.lags()
	if len(got) != len(want) {
		t.Fatalf("lags %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("arrival %d lag %gms, want %gms", i, got[i], want[i])
		}
	}
	if len(ran) != len(offsets) {
		t.Fatalf("ran %d jobs, want %d", len(ran), len(offsets))
	}
	for _, due := range ran {
		found := false
		for _, off := range offsets {
			found = found || due.Equal(start.Add(off))
		}
		if !found {
			t.Errorf("job due %v is not on the absolute schedule", due)
		}
	}
	for _, w := range lags.waits() {
		if w < 0 {
			t.Errorf("negative queue wait %g", w)
		}
	}
}

func TestGrowingQueueWaitInvalidatesRun(t *testing.T) {
	steady, growing := &lagLog{}, &lagLog{}
	for i := 0; i < 400; i++ {
		due := time.Duration(i) * 10 * time.Millisecond
		steady.addWait(due, float64(i%7)) // bounded noise
		growing.addWait(due, float64(i))  // a backlog: 1ms more per arrival
	}
	if !steady.valid() {
		t.Errorf("steady waits judged invalid, growth %gms", steady.growth())
	}
	if growing.valid() {
		t.Errorf("growing waits judged valid, growth %gms", growing.growth())
	}
}

// TestDeclarationsMatchBenchmarkJSON keeps the metric and workload lists the
// program reports in step with the benchmark's declaration.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDecl            `json:"end_to_end"`
		PerLayer  []metricDecl            `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []metricDecl) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd)
	same("per_layer", decl.PerLayer, perLayer)
	if len(decl.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the program runs %d", len(decl.Workloads), len(workloads))
	}
	for _, w := range decl.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is declared but not implemented", w.Name)
		}
	}
}
