// Package loadgen is an open-loop HTTP load generator for the poiesis
// planning service. Open-loop means arrivals follow a Poisson process at a
// configured target rate regardless of how fast the server answers — the
// generator never waits for a response before issuing the next request — so
// queueing delay shows up in the measured latencies instead of silently
// throttling the offered load (the coordinated-omission trap of closed-loop
// harnesses).
//
// The package speaks plain HTTP against a base URL and deliberately imports
// nothing from the rest of the module: it can drive an in-process
// httptest.Server (see cmd/poiesis-bench) or a remote `poiesis serve`
// deployment with equal fidelity.
package loadgen

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// Op names one traffic class of the mix.
type Op string

const (
	OpCreate Op = "create" // POST /v1/sessions
	OpPlan   Op = "plan"   // POST /v1/sessions/{id}/plan
	OpSelect Op = "select" // POST /v1/sessions/{id}/select
	OpGet    Op = "get"    // GET  /v1/sessions/{id}
	OpSSE    Op = "sse"    // POST /v1/sessions/{id}/plan?stream=sse, drained
	OpDelete Op = "delete" // DELETE /v1/sessions/{id}
)

// Mix weights the traffic classes; zero-weight ops never fire.
type Mix map[Op]int

// traceIDHeader is the response header the service stamps with the root
// span's trace ID (internal/obs.TraceIDHeader, spelled out here so loadgen
// keeps its zero-import property). Empty on servers with tracing disabled.
const traceIDHeader = "X-Poiesis-Trace-ID"

// slowestPerOp bounds how many slow samples each op retains; the report's
// "top-5 slowest, by trace" table is cut from their union.
const slowestPerOp = 5

// DefaultMix is read-heavy with a steady churn of plans, the profile of an
// interactive redesign session: mostly inspection, regular replanning, some
// session turnover.
func DefaultMix() Mix {
	return Mix{OpCreate: 1, OpPlan: 3, OpSelect: 2, OpGet: 5, OpSSE: 1, OpDelete: 1}
}

// DefaultSessionBody is the create-session request used unless Config
// overrides it: a small built-in flow with a fast greedy configuration, so
// smoke runs measure service overhead rather than planner depth.
const DefaultSessionBody = `{
	"name": "loadgen",
	"flow": {"builtin": "tpcds-purchases"},
	"scale": 100,
	"config": {"policy": "greedy", "topK": 1, "depth": 1, "sim": {"runs": 4, "defaultRows": 100}}
}`

// RowEngineSessionBody is DefaultSessionBody with the columnar simulation
// engine disabled ("rowEngine": true), so a load run can measure the
// row-at-a-time ablation under identical traffic.
const RowEngineSessionBody = `{
	"name": "loadgen",
	"flow": {"builtin": "tpcds-purchases"},
	"scale": 100,
	"config": {"policy": "greedy", "topK": 1, "depth": 1, "sim": {"runs": 4, "defaultRows": 100}, "rowEngine": true}
}`

// Config parameterizes one run.
type Config struct {
	// BaseURL roots every request, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Client issues the requests; nil uses a fresh client with a 60s
	// timeout (the timeout covers SSE streams end-to-end).
	Client *http.Client
	// QPS is the target arrival rate (Poisson). Must be positive.
	QPS float64
	// Duration is how long arrivals are generated; in-flight requests are
	// drained afterwards and still measured. Must be positive.
	Duration time.Duration
	// Mix weights the operations; nil uses DefaultMix.
	Mix Mix
	// SessionBody is the JSON create-session request; empty uses
	// DefaultSessionBody (or RowEngineSessionBody when RowEngine is set).
	SessionBody string
	// RowEngine selects the row-at-a-time session body when SessionBody is
	// empty, so BENCH trajectories can compare simulation-engine modes.
	RowEngine bool
	// Seed fixes the arrival schedule and op choices; 0 means seed 1, so
	// runs are reproducible by default.
	Seed int64
	// WarmSessions are created (and planned) before the clock starts, so
	// session-targeted ops have targets from the first arrival. Default 2.
	WarmSessions int
	// MaxInFlight bounds concurrent requests; arrivals past the bound are
	// counted as dropped instead of queued (the generator must not become
	// the queue it is trying to measure). Default 256.
	MaxInFlight int
}

func (c *Config) withDefaults() (Config, error) {
	cfg := *c
	if cfg.BaseURL == "" {
		return cfg, errors.New("loadgen: BaseURL is required")
	}
	cfg.BaseURL = strings.TrimSuffix(cfg.BaseURL, "/")
	if cfg.QPS <= 0 {
		return cfg, errors.New("loadgen: QPS must be positive")
	}
	if cfg.Duration <= 0 {
		return cfg, errors.New("loadgen: Duration must be positive")
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 60 * time.Second}
	}
	if cfg.Mix == nil {
		cfg.Mix = DefaultMix()
	}
	total := 0
	for _, w := range cfg.Mix {
		if w < 0 {
			return cfg, errors.New("loadgen: negative mix weight")
		}
		total += w
	}
	if total == 0 {
		return cfg, errors.New("loadgen: mix has no positive weights")
	}
	if cfg.SessionBody == "" {
		cfg.SessionBody = DefaultSessionBody
		if cfg.RowEngine {
			cfg.SessionBody = RowEngineSessionBody
		}
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.WarmSessions == 0 {
		cfg.WarmSessions = 2
	}
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = 256
	}
	return cfg, nil
}

// sessionPool tracks live session IDs and which of them have a plan result,
// so select ops target sessions where a select can succeed.
type sessionPool struct {
	mu      sync.Mutex
	ids     []string
	planned map[string]bool
}

func newSessionPool() *sessionPool {
	return &sessionPool{planned: map[string]bool{}}
}

func (p *sessionPool) add(id string) {
	p.mu.Lock()
	p.ids = append(p.ids, id)
	p.mu.Unlock()
}

func (p *sessionPool) markPlanned(id string) {
	p.mu.Lock()
	p.planned[id] = true
	p.mu.Unlock()
}

// clearPlanned marks a session as needing a fresh plan: a select consumes
// the skyline, so the next select on it must wait for another plan.
func (p *sessionPool) clearPlanned(id string) {
	p.mu.Lock()
	delete(p.planned, id)
	p.mu.Unlock()
}

func (p *sessionPool) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.ids)
}

// pick returns a random live ID; preferPlanned narrows to sessions with a
// plan result when any exist. r is the dispatch goroutine's private rng.
func (p *sessionPool) pick(r *rand.Rand, preferPlanned bool) (string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.ids) == 0 {
		return "", false
	}
	if preferPlanned {
		var candidates []string
		for _, id := range p.ids {
			if p.planned[id] {
				candidates = append(candidates, id)
			}
		}
		if len(candidates) > 0 {
			return candidates[r.Intn(len(candidates))], true
		}
	}
	return p.ids[r.Intn(len(p.ids))], true
}

// take removes and returns a random ID (for deletes): removing at dispatch
// time keeps later arrivals from targeting a session scheduled to die, so
// races stay rare (and merely count as conflicts when they happen).
func (p *sessionPool) take(r *rand.Rand) (string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.ids) == 0 {
		return "", false
	}
	i := r.Intn(len(p.ids))
	id := p.ids[i]
	p.ids[i] = p.ids[len(p.ids)-1]
	p.ids = p.ids[:len(p.ids)-1]
	delete(p.planned, id)
	return id, true
}

// Run generates load until the duration elapses or ctx is cancelled, drains
// in-flight requests, and reports per-op latency and error statistics.
func Run(ctx context.Context, c Config) (*Report, error) {
	cfg, err := c.withDefaults()
	if err != nil {
		return nil, err
	}
	g := &generator{cfg: cfg, pool: newSessionPool(), stats: map[Op]*opStats{}}
	for _, op := range []Op{OpCreate, OpPlan, OpSelect, OpGet, OpSSE, OpDelete} {
		if cfg.Mix[op] > 0 {
			g.stats[op] = &opStats{}
		}
	}
	// Warm the pool synchronously so the measured window never starts
	// against an empty store; warm requests are not recorded.
	for i := 0; i < cfg.WarmSessions; i++ {
		id, status, _, err := g.create(ctx)
		if err != nil || status != http.StatusCreated {
			return nil, fmt.Errorf("loadgen: warm-up create failed (status %d): %v", status, err)
		}
		if status, _, err := g.plan(ctx, id, false); err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("loadgen: warm-up plan failed (status %d): %v", status, err)
		}
		g.pool.add(id)
		g.pool.markPlanned(id)
	}
	// Bracket the measured window (not the warm-up) with /metrics scrapes,
	// so the report can pair client-side latencies with what the server
	// actually did. Best-effort: a target without the endpoint reports
	// client-side numbers only.
	before := scrapeMetrics(cfg.Client, cfg.BaseURL)
	rep, err := g.run(ctx)
	if rep != nil {
		rep.Server = serverDelta(before, scrapeMetrics(cfg.Client, cfg.BaseURL))
	}
	return rep, err
}

type opStats struct {
	mu        sync.Mutex
	okNanos   []int64 // latencies of successful completions
	slowest   []SlowRequest
	conflicts int
	errors    int
}

func (s *opStats) record(d time.Duration, status int, traceID string, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case err == nil && status >= 200 && status < 300:
		s.okNanos = append(s.okNanos, int64(d))
		s.noteSlow(int64(d), traceID)
	case err == nil && (status == http.StatusNotFound || status == http.StatusConflict):
		// Expected open-loop collisions: the target was deleted or evicted
		// between dispatch and arrival, or two plans raced on one session.
		s.conflicts++
	default:
		s.errors++
	}
}

// noteSlow keeps the op's slowest completions (descending by latency) so the
// report can link tail latency to the server-side span tree by trace ID.
// Called with s.mu held.
func (s *opStats) noteSlow(nanos int64, traceID string) {
	i := len(s.slowest)
	for i > 0 && s.slowest[i-1].Nanos < nanos {
		i--
	}
	if i >= slowestPerOp {
		return
	}
	s.slowest = append(s.slowest, SlowRequest{})
	copy(s.slowest[i+1:], s.slowest[i:])
	s.slowest[i] = SlowRequest{Nanos: nanos, TraceID: traceID}
	if len(s.slowest) > slowestPerOp {
		s.slowest = s.slowest[:slowestPerOp]
	}
}

type generator struct {
	cfg   Config
	pool  *sessionPool
	stats map[Op]*opStats

	arrivals int
	dropped  int
}

// run is the open-loop dispatch loop: Poisson arrivals at the target rate,
// one goroutine per admitted arrival. Arrivals are scheduled at absolute due
// times — start plus the cumulative exponential offsets — so the time the
// loop itself spends (op choice, goroutine spawn, timer slack) never
// stretches the schedule; a loop that falls behind dispatches the overdue
// arrivals at once and catches up. The offsets come from their own seeded
// stream, so the schedule is a pure function of Seed, QPS and Duration.
func (g *generator) run(ctx context.Context) (*Report, error) {
	schedule := rand.New(rand.NewSource(g.cfg.Seed))
	ops := rand.New(rand.NewSource(g.cfg.Seed + 1))
	tokens := make(chan struct{}, g.cfg.MaxInFlight)
	var wg sync.WaitGroup
	timer := time.NewTimer(0)
	defer timer.Stop()
	start := time.Now()
	var offset time.Duration

	for {
		offset += time.Duration(schedule.ExpFloat64() / g.cfg.QPS * float64(time.Second))
		if offset > g.cfg.Duration {
			break
		}
		due := start.Add(offset)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-ctx.Done():
				wg.Wait()
				return nil, ctx.Err()
			case <-timer.C:
			}
		} else if ctx.Err() != nil {
			wg.Wait()
			return nil, ctx.Err()
		}

		op, id, ok := g.chooseOp(ops)
		if !ok {
			continue
		}
		g.arrivals++
		select {
		case tokens <- struct{}{}:
		default:
			g.dropped++ // the generator's queue is full: shed, don't stall
			continue
		}
		wg.Add(1)
		go func(op Op, id string, due time.Time) {
			defer wg.Done()
			defer func() { <-tokens }()
			g.issue(ctx, op, id, due)
		}(op, id, due)
	}
	wg.Wait()
	elapsed := time.Since(start)
	return g.report(elapsed), nil
}

// chooseOp draws an operation from the mix and resolves its target session.
// Session-targeted ops degrade to create when the pool is empty, and deletes
// hold a small floor of sessions so the mix cannot starve itself.
func (g *generator) chooseOp(rng *rand.Rand) (Op, string, bool) {
	total := 0
	for _, w := range g.cfg.Mix {
		total += w
	}
	n := rng.Intn(total)
	var op Op
	for _, candidate := range []Op{OpCreate, OpPlan, OpSelect, OpGet, OpSSE, OpDelete} {
		w := g.cfg.Mix[candidate]
		if n < w {
			op = candidate
			break
		}
		n -= w
	}
	switch op {
	case OpCreate:
		return op, "", true
	case OpDelete:
		if g.pool.size() <= g.cfg.WarmSessions {
			return OpCreate, "", true
		}
		id, ok := g.pool.take(rng)
		if !ok {
			return OpCreate, "", true
		}
		return op, id, true
	case OpSelect:
		id, ok := g.pool.pick(rng, true)
		if !ok {
			return OpCreate, "", true
		}
		return op, id, true
	default: // plan, get, sse
		id, ok := g.pool.pick(rng, false)
		if !ok {
			return OpCreate, "", true
		}
		return op, id, true
	}
}

// issue performs one operation and records its outcome. Latency is timed
// from the arrival's due time, not from dispatch, so a late dispatch counts
// against the service the way a real client's wait would. Requests carry
// the run's context so cancelling the run aborts in-flight requests instead
// of waiting out their server-side completion.
func (g *generator) issue(ctx context.Context, op Op, id string, due time.Time) {
	var (
		status int
		tid    string
		err    error
	)
	switch op {
	case OpCreate:
		var newID string
		newID, status, tid, err = g.create(ctx)
		if err == nil && status == http.StatusCreated {
			g.pool.add(newID)
		}
	case OpPlan:
		status, tid, err = g.plan(ctx, id, false)
		if err == nil && status == http.StatusOK {
			g.pool.markPlanned(id)
		}
	case OpSSE:
		status, tid, err = g.plan(ctx, id, true)
		if err == nil && status == http.StatusOK {
			g.pool.markPlanned(id)
		}
	case OpSelect:
		status, tid, err = g.do(ctx, "POST", "/v1/sessions/"+id+"/select", `{"index":0}`, nil)
		if err == nil && status == http.StatusOK {
			g.pool.clearPlanned(id)
		}
		// A 400 here is the stale-skyline race: another select consumed the
		// result between dispatch and arrival. The request shape is fixed,
		// so this is open-loop contention, not a malformed request.
		if err == nil && status == http.StatusBadRequest {
			status = http.StatusConflict
		}
	case OpGet:
		status, tid, err = g.do(ctx, "GET", "/v1/sessions/"+id, "", nil)
	case OpDelete:
		status, tid, err = g.do(ctx, "DELETE", "/v1/sessions/"+id, "", nil)
		if status == http.StatusNoContent {
			status = http.StatusOK
		}
	}
	g.stats[op].record(time.Since(due), status, tid, err)
}

func (g *generator) create(ctx context.Context) (string, int, string, error) {
	var out struct {
		ID string `json:"id"`
	}
	status, tid, err := g.do(ctx, "POST", "/v1/sessions", g.cfg.SessionBody, &out)
	return out.ID, status, tid, err
}

// plan runs a plan request; when stream is set it subscribes to the SSE
// progress stream and drains it to the final event, so the measured latency
// is the full time-to-last-byte of the stream.
func (g *generator) plan(ctx context.Context, id string, stream bool) (int, string, error) {
	path := "/v1/sessions/" + id + "/plan"
	if !stream {
		return g.do(ctx, "POST", path, "", nil)
	}
	req, err := http.NewRequestWithContext(ctx, "POST", g.cfg.BaseURL+path+"?stream=sse", nil)
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := g.cfg.Client.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	tid := resp.Header.Get(traceIDHeader)
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return resp.StatusCode, tid, err
	}
	return resp.StatusCode, tid, nil
}

func (g *generator) do(ctx context.Context, method, path, body string, out any) (int, string, error) {
	var rdr io.Reader
	if body != "" {
		rdr = strings.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, g.cfg.BaseURL+path, rdr)
	if err != nil {
		return 0, "", err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := g.cfg.Client.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	tid := resp.Header.Get(traceIDHeader)
	if out != nil && resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return resp.StatusCode, tid, json.NewDecoder(resp.Body).Decode(out)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, tid, err
}

// report folds the per-op stats into a Report.
func (g *generator) report(elapsed time.Duration) *Report {
	r := &Report{
		TargetQPS:  g.cfg.QPS,
		DurationNs: int64(elapsed),
		Arrivals:   g.arrivals,
		Dropped:    g.dropped,
	}
	if elapsed > 0 {
		r.AchievedQPS = float64(g.arrivals-g.dropped) / elapsed.Seconds()
	}
	for _, op := range []Op{OpCreate, OpPlan, OpSelect, OpGet, OpSSE, OpDelete} {
		s, ok := g.stats[op]
		if !ok {
			continue
		}
		s.mu.Lock()
		or := OpReport{
			Op:        string(op),
			OK:        len(s.okNanos),
			Conflicts: s.conflicts,
			Errors:    s.errors,
		}
		or.Count = or.OK + or.Conflicts + or.Errors
		if len(s.okNanos) > 0 {
			nanos := append([]int64(nil), s.okNanos...)
			or.MeanNs = mean(nanos)
			sortInt64(nanos)
			or.P50Ns = percentile(nanos, 0.50)
			or.P95Ns = percentile(nanos, 0.95)
			or.P99Ns = percentile(nanos, 0.99)
			or.P999Ns = percentile(nanos, 0.999)
			or.MaxNs = float64(nanos[len(nanos)-1])
		}
		for _, sl := range s.slowest {
			sl.Op = string(op)
			r.Slowest = append(r.Slowest, sl)
		}
		s.mu.Unlock()
		if or.Count > 0 {
			r.Ops = append(r.Ops, or)
		}
	}
	// The per-op slow lists merge into one cross-op tail: the table answers
	// "which requests hurt most", not "which hurt most per class".
	sort.SliceStable(r.Slowest, func(i, j int) bool { return r.Slowest[i].Nanos > r.Slowest[j].Nanos })
	if len(r.Slowest) > slowestPerOp {
		r.Slowest = r.Slowest[:slowestPerOp]
	}
	return r
}

func mean(nanos []int64) float64 {
	var sum float64
	for _, n := range nanos {
		sum += float64(n)
	}
	return sum / float64(len(nanos))
}

func sortInt64(s []int64) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

// percentile reads the q-quantile from an ascending latency slice using the
// nearest-rank method (what "p99" means operationally: the smallest value
// ≥ 99% of samples).
func percentile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return float64(sorted[rank])
}
