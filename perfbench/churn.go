package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"poiesis"
	"poiesis/internal/config"
	"poiesis/internal/core"
	"poiesis/internal/loadgen"
)

// session-churn: three replicas in the benchmark process, each with its own
// disk backend. Every request goes to a random replica, so about two thirds
// are forwarded. Each session runs the whole lifecycle (lifecycleSteps) —
// create with a fresh binding seed, a cold plan (some over SSE), reads,
// select, re-plan, delete — so plans miss the cache and records are written
// and removed.
//
// Latencies come from one analyst working through a number of lifecycles
// fixed by the window, back to back, so every seed yields the same sample
// counts (and tail percentiles); the peak phase then runs nproc analysts for
// the rest of the window. A cold plan keeps both cores busy (the planner's
// workers), so with concurrent analysts every short request's tail would
// measure how often the seed's arrivals overlapped a plan rather than the
// write, miss, restore and hop paths this workload is for.
const (
	churnReplicas = 3
	// churnPopulation is how many sessions the untimed population phase
	// leaves on disk for the timed reopen.
	churnPopulation = 45
	// churnSampled is how many lifecycles have their cold plan checked
	// against a plan computed through core during set-up.
	churnSampled = 6
	// churnLifecycleRate is how many lifecycles the latency phase runs per
	// second of the window: 210 in 30 s, about 18 s of work on two cores,
	// which puts 105 reads, 52 plans and 78 writes in each of a tail's
	// blocks, read at p90, p75 and p75.
	churnLifecycleRate = 7
	// churnSetupReps is how many times the replicas are reopened; setup_s
	// is the median. A reopen takes about 0.3 s, so a median of three moved
	// with a single slow one.
	churnSetupReps = 9
	// churnSlice is the slice length peak throughput is read over, long
	// enough to hold several cold plans.
	churnSlice = 500 * time.Millisecond
)

// churnSSEShare is the share of cold plans streamed over SSE: SSE's share of
// all plans in loadgen.DefaultMix.
func churnSSEShare() float64 {
	m := loadgen.DefaultMix()
	return float64(m[loadgen.OpSSE]) / float64(m[loadgen.OpSSE]+m[loadgen.OpPlan])
}

const churnConfig = `{"policy":"greedy","topK":1,"depth":2,"sim":{"runs":4,"defaultRows":100}}`

// churnBody is a lifecycle's session body: one shared flow and
// configuration, a binding seed of its own.
func churnBody(seed uint64) body {
	return body{Flow: "tpch-pricing", Scale: 100, Seed: seed, Config: churnConfig}
}

// lifecycle is one pre-drawn session lifecycle.
type lifecycle struct {
	seed uint64
	sse  bool
	// to picks the replica for each of the lifecycle's requests.
	to [churnSteps]int
	// ref is the core digest of the cold plan, for sampled lifecycles.
	ref string
}

// lcState is a lifecycle in flight.
type lcState struct {
	lc             *lifecycle
	id             string
	digest, label0 string
	// iter counts the selections integrated so far.
	iter int
	// next is the closed loop's next request index.
	next int
}

type churnWorld struct {
	cfg   runConfig
	spans *recorder
	on    atomic.Bool
	dirs  [churnReplicas]string
	reps  []*replica
	plain *client

	lat    *sampleSet
	coldMu sync.Mutex
	cold   []float64
	misses atomic.Int64
	plans  atomic.Int64
}

func runSessionChurn(cfg runConfig, rep *report, t *tally) error {
	w := &churnWorld{cfg: cfg}
	if cfg.traced {
		w.spans = newRecorder()
	}
	for i := range w.dirs {
		w.dirs[i] = filepath.Join(cfg.scratch, fmt.Sprintf("r%d", i))
	}
	w.plain = newClient(cfg.procs, nil)
	defer w.plain.close()
	rng := rand.New(rand.NewPCG(cfg.seed, 0xc4012))

	latency := max(2*churnSampled, int(cfg.window.Seconds()*churnLifecycleRate))
	sseShare := churnSSEShare()
	lcs := make([]lifecycle, 4096)
	for i := range lcs {
		lcs[i].seed = rng.Uint64()>>16 + 1
		lcs[i].sse = rng.Float64() < sseShare
		for k := range lcs[i].to {
			lcs[i].to[k] = rng.IntN(churnReplicas)
		}
	}
	probe := newPlanProbe(w.spans)
	// Sample among the lifecycles both the untraced and the traced runs
	// reach.
	for _, i := range rng.Perm(latency / 2)[:churnSampled] {
		sess, err := churnBody(lcs[i].seed).inProcess(probe)
		if err != nil {
			return err
		}
		res, err := probe.explore(context.Background(), sess)
		if err != nil {
			return fmt.Errorf("reference plan: %w", err)
		}
		lcs[i].ref = resultDigest(res)
	}
	probe.on.Store(false)

	if err := w.populate(rng.Uint64()>>16 + 1); err != nil {
		return fmt.Errorf("population: %w", err)
	}
	var snaps, restores, sizes []float64
	if cfg.traced {
		if err := w.snapshotLayer(&snaps, &restores, &sizes); err != nil {
			return err
		}
	}
	setup, n, err := medianSetup(churnSetupReps, w.reopen, w.stop)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer w.stop()
	rep.set("setup_s", setup, "s", n, fmt.Sprintf("reopening %d replicas over %d session records", churnReplicas, churnPopulation))

	var next atomic.Int64
	if !cfg.traced {
		start := time.Now()
		w.lat = newSampleSet()
		runtime.GC()
		before := readRuntime()
		ops := w.analyst(w.plain, lcs, &next, latency, t)
		after := readRuntime()
		w.reportTimings(rep)
		peak := max(cfg.window-time.Since(start), cfg.window/4)
		peakOps, peakRate := w.lifecycles(w.plain, lcs, &next, cfg.procs, peak, t)
		rep.set("peak_rps", peakRate, "1/s", peakOps, fmt.Sprintf("closed loop, %d analysts, median of %v slices", cfg.procs, churnSlice))
		rep.set("success_ratio", 1-ratio(float64(t.failed.Load()+t.wrong.Load()), float64(t.attempted.Load())), "ratio", int(t.attempted.Load()), "")
		rep.set("live_heap_mb", liveHeapMB(), "MB", 1, "HeapInuse after GC, three replicas live")
		rep.set("allocs_per_op", ratio(float64(after.mallocs-before.mallocs), float64(ops)), "count", ops, "process mallocs per completed request, one analyst")
		return nil
	}

	// Traced run: the first half untraced, the second traced.
	w.lat = newSampleSet()
	w.analyst(w.plain, lcs, &next, latency/2, t)
	untraced := w.lat.take(classPlan)
	w.lat = newSampleSet()
	tc := newClient(cfg.procs, w.spans)
	defer tc.close()
	w.on.Store(true)
	runtime.GC()
	before := readRuntime()
	ops := w.analyst(tc, lcs, &next, latency/2, t)
	after := readRuntime()
	w.on.Store(false)
	spans := w.spans.snapshot()
	servedLayers(rep, spans)
	probe.report(rep, spans)
	var cacheBytes int64
	for _, r := range w.reps {
		st, err := r.stats(w.plain)
		if err != nil {
			return err
		}
		cacheBytes += st.CacheBytes
	}
	rep.set("cache.hit_ratio", 1-ratio(float64(w.misses.Load()), float64(w.plans.Load())), "ratio", int(w.plans.Load()), "plan responses marked cached")
	rep.set("cache.bytes", float64(cacheBytes), "bytes", churnReplicas, "/v1/stats cacheBytes summed over replicas")
	rep.set("core.snapshot_p50_ms", medianOf(snaps), "ms", len(snaps), "Session.Snapshot of sessions restored from the population's records")
	rep.set("core.snapshot_bytes", medianOf(sizes), "bytes", len(sizes), "encoded snapshot")
	rep.set("core.restore_p50_ms", medianOf(restores), "ms", len(restores), "RestoreSession of those snapshots")
	runtimeMetrics(rep, before, after, ops)
	rep.set("driver.lag_p99_ms", 0, "ms", 0, "closed loop: no schedule")
	rep.set("driver.queue_wait_p50_ms", 0, "ms", 0, "closed loop: no queue")
	traced := w.lat.take(classPlan)
	rep.set("bench.trace_overhead_share", overheadShare(untraced, traced), "ratio", len(traced), "traced over untraced median plan latency, minus one")
	return writeSpans(cfg, "session-churn", w.spans, spans)
}

func (w *churnWorld) reportTimings(rep *report) {
	for _, class := range []string{classRead, classPlan, classWrite} {
		rep.timing(class, w.lat.take(class), "ms")
	}
	w.coldMu.Lock()
	defer w.coldMu.Unlock()
	rep.set("explore_p50_s", medianOf(w.cold)/1e3, "s", len(w.cold), "plans that computed (cache misses)")
}

// analyst runs n lifecycles back to back, each request due when the
// previous reply arrived, and returns the requests completed.
func (w *churnWorld) analyst(c *client, lcs []lifecycle, next *atomic.Int64, n int, t *tally) int {
	ops := 0
	for i := 0; i < n; i++ {
		st := &lcState{lc: &lcs[int(next.Add(1)-1)%len(lcs)]}
		for k := 0; k < churnSteps; k++ {
			if w.step(c, st, k, time.Now(), t) == "" {
				break
			}
			ops++
		}
	}
	return ops
}

// lifecycles runs clients closed-loop analysts for d, each working through
// lifecycles of its own (taken from lcs at next) one request per step; a
// request is due when the analyst's previous reply arrived. It returns the
// requests completed and the median completion rate.
func (w *churnWorld) lifecycles(c *client, lcs []lifecycle, next *atomic.Int64, clients int, d time.Duration, t *tally) (int, float64) {
	cur := make([]*lcState, clients)
	return closedLoop(clients, time.Now().Add(d), churnSlice, func(ci int) int {
		st := cur[ci]
		if st == nil || st.next == churnSteps {
			st = &lcState{lc: &lcs[int(next.Add(1)-1)%len(lcs)]}
			cur[ci] = st
		}
		k := st.next
		st.next++
		if w.step(c, st, k, time.Now(), t) == "" {
			st.next = churnSteps // a failed request ends its lifecycle
			return 0
		}
		return 1
	})
}

// Request kinds of a lifecycle.
const (
	stepCreate = iota
	stepPlan
	stepSkyline
	stepResult
	stepSelect
	stepDetail
	stepDelete
)

// lifecycleSteps is one session's life: the analyst plans, looks at the
// frontier, integrates a design, re-plans and looks again, then drops the
// session.
var lifecycleSteps = [...]int{
	stepCreate, stepPlan, stepSkyline, stepResult, stepSelect, stepPlan,
	stepSkyline, stepDetail, stepDelete,
}

const churnSteps = len(lifecycleSteps)

// step runs request k of a lifecycle and checks its output against what
// the lifecycle has seen so far. It returns the op class, or "" when the
// request failed and the lifecycle stops.
func (w *churnWorld) step(c *client, st *lcState, k int, due time.Time, t *tally) string {
	t.attempted.Add(1)
	r := w.reps[st.lc.to[k]]
	base := r.url + "/v1/sessions/" + st.id
	var class string
	var err error
	// done is when the reply had fully arrived: latency ends there, before
	// the benchmark decodes and checks it.
	var done time.Time
	switch lifecycleSteps[k] {
	case stepCreate:
		class = classWrite
		var rp reply
		rp, err = c.do(http.MethodPost, r.url+"/v1/sessions", churnBody(st.lc.seed).json(), classWrite)
		done = rp.done
		if err = expect(rp, err, http.StatusCreated); err == nil {
			var sb sessionBody
			if json.Unmarshal(rp.body, &sb) != nil || sb.ID == "" {
				err = fmt.Errorf("create response without an id: %.200s", rp.body)
			}
			st.id = sb.ID
		}
	case stepPlan:
		class = classPlan
		first := st.digest == ""
		sse := first && st.lc.sse
		url := base + "/plan"
		if sse {
			url += "?stream=sse"
		}
		rp, e := c.do(http.MethodPost, url, nil, classPlan)
		done = rp.done
		if err = expect(rp, e, http.StatusOK); err == nil {
			var res resultBody
			if res, err = decodeResult(rp.body, sse); err == nil {
				w.plans.Add(1)
				if !res.Cached {
					w.misses.Add(1)
					w.coldMu.Lock()
					w.cold = append(w.cold, ms(done.Sub(due)))
					w.coldMu.Unlock()
				}
				st.digest, st.label0 = res.digest(), res.Skyline[0].Label
				if first && st.lc.ref != "" && st.digest != st.lc.ref {
					t.mismatch("cold plan of seed " + fmt.Sprint(st.lc.seed))
				}
			}
		}
	case stepSkyline, stepResult:
		class = classRead
		path := "/skyline"
		if lifecycleSteps[k] == stepResult {
			path = "/result"
		}
		rp, e := c.do(http.MethodGet, base+path, nil, classRead)
		done = rp.done
		if err = expect(rp, e, http.StatusOK); err == nil {
			if res, e := decodeResult(rp.body, false); e != nil || res.digest() != st.digest {
				t.mismatch(path + " of " + st.id)
			}
		}
	case stepSelect:
		class = classWrite
		rp, e := c.do(http.MethodPost, base+"/select", []byte(`{"index":0}`), classWrite)
		done = rp.done
		if err = expect(rp, e, http.StatusOK); err == nil {
			var sb selectBody
			if json.Unmarshal(rp.body, &sb) != nil || sb.Selection.Iteration != st.iter+1 || sb.Selection.Label != st.label0 {
				t.mismatch("select on " + st.id)
			}
			st.iter++
		}
	case stepDetail:
		class = classRead
		rp, e := c.do(http.MethodGet, base, nil, classRead)
		done = rp.done
		if err = expect(rp, e, http.StatusOK); err == nil {
			var sb sessionBody
			if json.Unmarshal(rp.body, &sb) != nil || sb.ID != st.id || sb.Iterations != st.iter || !sb.HasResult {
				t.mismatch("session detail of " + st.id)
			}
		}
	case stepDelete:
		class = classWrite
		rp, e := c.do(http.MethodDelete, base, nil, classWrite)
		done = rp.done
		err = expect(rp, e, http.StatusNoContent)
	}
	if err != nil {
		t.fail(err)
		return ""
	}
	v := ms(done.Sub(due))
	w.lat.add(class, v)
	w.lat.add("all", v)
	return class
}

// start brings the replicas up over their record directories: listeners
// first, so every replica's membership can name every URL, then the
// servers, concurrently — each restores its own records, as separate
// processes would.
func (w *churnWorld) start() error {
	lns := make([]net.Listener, churnReplicas)
	members := make([]poiesis.ClusterMember, churnReplicas)
	for i := range lns {
		ln, err := listen()
		if err != nil {
			return err
		}
		lns[i] = ln
		members[i] = poiesis.ClusterMember{ID: fmt.Sprintf("r%d", i), URL: "http://" + ln.Addr().String()}
	}
	servers := make([]*poiesis.PlanServer, churnReplicas)
	errs := make([]error, churnReplicas)
	var wg sync.WaitGroup
	for i := range servers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			db, err := poiesis.NewDiskSessionBackend(w.dirs[i])
			if err != nil {
				errs[i] = err
				return
			}
			var backend poiesis.SessionBackend = db.WithLogf(func(string, ...any) {})
			if w.spans != nil {
				backend = timedBackend{SessionBackend: backend, spans: w.spans, on: &w.on}
			}
			cl, err := poiesis.NewCluster(members[i].ID, members)
			if err != nil {
				errs[i] = err
				return
			}
			cfg := baseServerConfig()
			cfg.Backend = backend
			cfg.Cluster = cl
			servers[i] = poiesis.NewServer(cfg)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			for _, ln := range lns {
				ln.Close()
			}
			return fmt.Errorf("replica r%d: %w", i, err)
		}
	}
	for i, ps := range servers {
		w.reps = append(w.reps, serve(members[i].ID, lns[i], ps, w.spans, &w.on))
	}
	return nil
}

func (w *churnWorld) reopen() (time.Duration, error) {
	start := time.Now()
	err := w.start()
	return time.Since(start), err
}

func (w *churnWorld) stop() {
	for _, r := range w.reps {
		r.stop()
	}
	w.reps = nil
}

// populate leaves churnPopulation session records on disk: sessions over
// three shared bodies, each planned, every other one with a selection
// integrated.
func (w *churnWorld) populate(seed uint64) error {
	if err := w.start(); err != nil {
		return err
	}
	defer w.stop()
	var next atomic.Int64
	errs := make(chan error, w.cfg.procs)
	var wg sync.WaitGroup
	for g := 0; g < w.cfg.procs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= churnPopulation {
					return
				}
				if err := w.populateOne(i, churnBody(seed+uint64(i%3))); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

func (w *churnWorld) populateOne(i int, b body) error {
	r := w.reps[i%churnReplicas]
	rp, err := w.plain.do(http.MethodPost, r.url+"/v1/sessions", b.json(), classWrite)
	if err := expect(rp, err, http.StatusCreated); err != nil {
		return err
	}
	var sb sessionBody
	if err := json.Unmarshal(rp.body, &sb); err != nil {
		return err
	}
	base := r.url + "/v1/sessions/" + sb.ID
	rp, err = w.plain.do(http.MethodPost, base+"/plan", nil, classPlan)
	if err := expect(rp, err, http.StatusOK); err != nil {
		return err
	}
	if i%2 == 1 {
		rp, err = w.plain.do(http.MethodPost, base+"/select", []byte(`{"index":0}`), classWrite)
		return expect(rp, err, http.StatusOK)
	}
	return nil
}

// snapshotLayer times core.RestoreSession and Session.Snapshot over the
// population's records, read straight from the replicas' directories.
func (w *churnWorld) snapshotLayer(snaps, restores, sizes *[]float64) error {
	for _, dir := range w.dirs {
		db, err := poiesis.NewDiskSessionBackend(dir)
		if err != nil {
			return err
		}
		recs, err := db.WithLogf(func(string, ...any) {}).List()
		if err != nil {
			return err
		}
		for _, rec := range recs[:min(len(recs), 20)] {
			if rec.Session == nil || rec.Session.Last == nil {
				continue // a record after a selection carries no result
			}
			planner, err := plannerFor(rec.Config)
			if err != nil {
				return err
			}
			sess, err := core.RestoreSession(planner, rec.Session)
			if err != nil {
				return err
			}
			if err := snapshotLayer(sess, planner, 1, snaps, restores, sizes); err != nil {
				return err
			}
		}
	}
	return nil
}

func plannerFor(doc *config.Document) (*core.Planner, error) {
	reg, err := doc.Registry()
	if err != nil {
		return nil, err
	}
	opts, err := doc.Options()
	if err != nil {
		return nil, err
	}
	return core.NewPlanner(reg, opts), nil
}
