package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"poiesis"
	"poiesis/internal/loadgen"
)

// session-reads: one node on the memory backend holding a few thousand live
// sessions over a handful of shared bodies, so nearly every plan is a
// plan-cache hit. The mix is read-heavy (readsMix). Arrivals are open-loop
// Poisson at readsRate, followed by a closed-loop peak phase.
//
// readsRate is far below the node's capacity (about 1,500 requests/s on two
// cores), so latencies measure the request path rather than a queue, yet
// high enough that each of a tail's tailBlocks blocks holds 60 or more
// samples of every op class: reads and plans are read at p90, writes at
// p75. The closed-loop phase drives the node to saturation.
const (
	readsSessions = 2000
	readsRate     = 150.0 // arrivals per second; see the note on readsRate
	// readsDepth is how many selections a session may integrate; every
	// (body, iteration) plan is computed once during set-up.
	readsDepth = 3
	// readsSetupReps is how many times the node is set up; setup_s is the
	// median.
	readsSetupReps = 3
	// readsSlice is the slice length peak throughput is read over.
	readsSlice = 250 * time.Millisecond
)

// readsOp is one request kind of the session-reads mix.
type readsOp int

const (
	opDetail readsOp = iota
	opSkyline
	opResult
	opPlan
	opSSE
	opSelect
	numReadsOps
)

// readsMix returns the cumulative shares of session-reads' request kinds,
// taken from loadgen.DefaultMix, the repository's profile of an interactive
// redesign session: Get's weight is split evenly over the three reads
// (session detail, skyline, result), Plan and SSE keep theirs, and Select
// is the write. Create and Delete are left out because this workload holds
// its sessions fixed; session-churn runs them.
func readsMix() [numReadsOps]float64 {
	m := loadgen.DefaultMix()
	get := float64(m[loadgen.OpGet]) / 3
	w := [numReadsOps]float64{
		opDetail:  get,
		opSkyline: get,
		opResult:  get,
		opPlan:    float64(m[loadgen.OpPlan]),
		opSSE:     float64(m[loadgen.OpSSE]),
		opSelect:  float64(m[loadgen.OpSelect]),
	}
	var total float64
	for _, x := range w {
		total += x
	}
	var cum [numReadsOps]float64
	acc := 0.0
	for k, x := range w {
		acc += x
		cum[k] = acc / total
	}
	return cum
}

// readBodies are the shared session bodies: small greedy depth-1 spaces
// over four built-in flows. They are fixed; the seed draws the request
// stream over them.
func readBodies() []body {
	cfg16 := `{"policy":"greedy","topK":2,"depth":1,"sim":{"runs":16,"defaultRows":300}}`
	cfg8 := `{"policy":"greedy","topK":2,"depth":1,"sim":{"runs":8,"defaultRows":200}}`
	return []body{
		{"tpcds-purchases", 300, 1, cfg16},
		{"tpch-revenue", 300, 2, cfg16},
		{"tpcds-inventory", 200, 3, cfg8},
		{"tpch-pricing", 200, 4, cfg8},
	}
}

// readsRef is the in-process truth for one body: the skyline digest and
// first frontier label at every iteration reached by selecting entry 0.
type readsRef struct {
	digest []string
	label0 []string
}

type readSess struct {
	id        string
	body      int
	iter      int
	hasResult bool
	busy      bool
}

type readsWorld struct {
	cfg    runConfig
	bodies []body
	mix    [numReadsOps]float64
	refs   []readsRef
	spans  *recorder
	on     atomic.Bool

	rep      *replica
	mu       sync.Mutex
	sessions []*readSess
	planHits atomic.Int64
	planAll  atomic.Int64
}

func runSessionReads(cfg runConfig, rep *report, t *tally) error {
	w := &readsWorld{cfg: cfg, bodies: readBodies(), mix: readsMix()}
	if cfg.traced {
		w.spans = newRecorder()
	}
	probe := newPlanProbe(w.spans)
	var snaps, restores, sizes []float64
	for _, b := range w.bodies {
		ref, err := w.reference(b, probe, &snaps, &restores, &sizes)
		if err != nil {
			return fmt.Errorf("reference plans: %w", err)
		}
		w.refs = append(w.refs, ref)
	}
	probe.on.Store(false)

	setup, reps, err := medianSetup(readsSetupReps, w.setup, w.teardown)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer w.teardown()
	rep.set("setup_s", setup, "s", reps, "server construction plus creating and planning every session")

	rng := rand.New(rand.NewPCG(cfg.seed, 0x5ea75))
	if cfg.traced {
		return w.measureTraced(rep, t, rng, probe, snaps, restores, sizes)
	}
	return w.measure(rep, t, rng)
}

// reference plans one body through core, selecting frontier entry 0 up to
// readsDepth times; in traced runs it also times the snapshot layer on the
// first iteration's session.
func (w *readsWorld) reference(b body, probe *planProbe, snaps, restores, sizes *[]float64) (readsRef, error) {
	var ref readsRef
	sess, err := b.inProcess(probe)
	if err != nil {
		return ref, err
	}
	for k := 0; ; k++ {
		res, err := probe.explore(context.Background(), sess)
		if err != nil {
			return ref, err
		}
		ref.digest = append(ref.digest, resultDigest(res))
		ref.label0 = append(ref.label0, res.Skyline()[0].Label())
		if k == 0 && w.spans != nil {
			if err := snapshotLayer(sess, sess.Planner(), 5, snaps, restores, sizes); err != nil {
				return ref, err
			}
		}
		if k == readsDepth {
			return ref, nil
		}
		if _, err := sess.Select(0); err != nil {
			return ref, err
		}
	}
}

// setup builds the server and brings every session to its first result.
func (w *readsWorld) setup() (time.Duration, error) {
	start := time.Now()
	cfg := baseServerConfig()
	cfg.MaxSessions = 2 * readsSessions
	backend := poiesis.NewMemorySessionBackend()
	if w.spans != nil {
		backend = timedBackend{SessionBackend: backend, spans: w.spans, on: &w.on}
	}
	cfg.Backend = backend
	ln, err := listen()
	if err != nil {
		return 0, err
	}
	w.rep = serve("r0", ln, poiesis.NewServer(cfg), w.spans, &w.on)
	c := newClient(w.cfg.procs, nil)
	defer c.close()

	// Walk each body's selection chain once so every plan the window can
	// ask for is already cached.
	for bi, b := range w.bodies {
		id, err := w.create(c, b)
		if err != nil {
			return 0, err
		}
		for k := 0; ; k++ {
			res, _, err := w.plan(c, id, false)
			if err != nil {
				return 0, err
			}
			if res.digest() != w.refs[bi].digest[k] {
				return 0, fmt.Errorf("set-up plan of %s at iteration %d disagrees with core", b.Flow, k)
			}
			if k == readsDepth {
				break
			}
			rp, err := c.do(http.MethodPost, w.rep.url+"/v1/sessions/"+id+"/select", []byte(`{"index":0}`), classWrite)
			if err := expect(rp, err, http.StatusOK); err != nil {
				return 0, err
			}
		}
		rp, err := c.do(http.MethodDelete, w.rep.url+"/v1/sessions/"+id, nil, classWrite)
		if err := expect(rp, err, http.StatusNoContent); err != nil {
			return 0, err
		}
	}

	w.sessions = make([]*readSess, readsSessions)
	errs := make(chan error, w.cfg.procs)
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < w.cfg.procs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= readsSessions {
					return
				}
				bi := i % len(w.bodies)
				id, err := w.create(c, w.bodies[bi])
				if err == nil {
					_, _, err = w.plan(c, id, false)
				}
				if err != nil {
					errs <- err
					return
				}
				w.sessions[i] = &readSess{id: id, body: bi, hasResult: true}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

func (w *readsWorld) teardown() {
	if w.rep != nil {
		w.rep.stop()
		w.rep = nil
	}
}

func (w *readsWorld) create(c *client, b body) (string, error) {
	rp, err := c.do(http.MethodPost, w.rep.url+"/v1/sessions", b.json(), classWrite)
	if err := expect(rp, err, http.StatusCreated); err != nil {
		return "", err
	}
	var sb sessionBody
	if err := json.Unmarshal(rp.body, &sb); err != nil || sb.ID == "" {
		return "", fmt.Errorf("create response without an id: %.200s", rp.body)
	}
	return sb.ID, nil
}

func (w *readsWorld) plan(c *client, id string, sse bool) (resultBody, time.Time, error) {
	url := w.rep.url + "/v1/sessions/" + id + "/plan"
	if sse {
		url += "?stream=sse"
	}
	rp, err := c.do(http.MethodPost, url, nil, classPlan)
	if err := expect(rp, err, http.StatusOK); err != nil {
		return resultBody{}, rp.done, err
	}
	res, err := decodeResult(rp.body, sse)
	return res, rp.done, err
}

// pick claims an idle session, starting at index i, so two of the driver's
// requests never meet on one session.
func (w *readsWorld) pick(i int) *readSess {
	w.mu.Lock()
	defer w.mu.Unlock()
	for k := 0; ; k++ {
		s := w.sessions[(i+k)%len(w.sessions)]
		if !s.busy {
			s.busy = true
			return s
		}
	}
}

func (w *readsWorld) release(s *readSess) {
	w.mu.Lock()
	s.busy = false
	w.mu.Unlock()
}

// draw is one pre-drawn arrival: which session and a roll choosing the op.
type draw struct {
	sess int
	roll float64
}

func drawOps(rng *rand.Rand, n int) []draw {
	out := make([]draw, n)
	for i := range out {
		out[i] = draw{sess: rng.IntN(readsSessions), roll: rng.Float64()}
	}
	return out
}

// op runs one request of the mix on a claimed session and checks its
// output; it returns the op class, or "" when the op failed.
func (w *readsWorld) op(c *client, d draw, t *tally) (string, time.Time) {
	s := w.pick(d.sess)
	defer w.release(s)
	t.attempted.Add(1)
	ref := w.refs[s.body]
	base := w.rep.url + "/v1/sessions/" + s.id
	kind := opDetail
	for kind < opSelect && d.roll >= w.mix[kind] {
		kind++
	}
	switch {
	case kind == opSelect && s.iter == readsDepth:
		kind = opPlan // nothing left to integrate
	case !s.hasResult && kind != opSSE:
		kind = opPlan // a session that selected re-plans next
	}
	class, err := classRead, error(nil)
	// done is when the reply had fully arrived: latency ends there, before
	// the benchmark decodes and checks it.
	var done time.Time
	switch kind {
	case opPlan, opSSE:
		class = classPlan
		var res resultBody
		if res, done, err = w.plan(c, s.id, kind == opSSE); err == nil {
			w.planAll.Add(1)
			if res.Cached {
				w.planHits.Add(1)
			}
			if res.digest() != ref.digest[s.iter] {
				t.mismatch("plan skyline of " + s.id)
			}
			s.hasResult = true
		}
	case opDetail:
		var sb sessionBody
		rp, e := c.do(http.MethodGet, base, nil, classRead)
		done = rp.done
		if err = expect(rp, e, http.StatusOK); err == nil {
			if json.Unmarshal(rp.body, &sb) != nil || sb.ID != s.id || sb.Iterations != s.iter || !sb.HasResult {
				t.mismatch("session detail of " + s.id)
			}
		}
	case opSkyline, opResult:
		path := "/skyline"
		if kind == opResult {
			path = "/result"
		}
		rp, e := c.do(http.MethodGet, base+path, nil, classRead)
		done = rp.done
		if err = expect(rp, e, http.StatusOK); err == nil {
			res, e := decodeResult(rp.body, false)
			if e != nil || res.digest() != ref.digest[s.iter] {
				t.mismatch(path + " of " + s.id)
			}
		}
	default:
		class = classWrite
		var sb selectBody
		rp, e := c.do(http.MethodPost, base+"/select", []byte(`{"index":0}`), classWrite)
		done = rp.done
		if err = expect(rp, e, http.StatusOK); err == nil {
			if json.Unmarshal(rp.body, &sb) != nil || sb.Selection.Iteration != s.iter+1 || sb.Selection.Label != ref.label0[s.iter] {
				t.mismatch("select on " + s.id)
			}
			s.iter++
			s.hasResult = false
		}
	}
	if err != nil {
		t.fail(err)
		return "", done
	}
	return class, done
}

// openPhase runs the open-loop mix for d and returns per-class latencies
// measured from each arrival's due time.
func (w *readsWorld) openPhase(c *client, rng *rand.Rand, d time.Duration, t *tally, lags *lagLog) *sampleSet {
	offsets := poissonOffsets(rng, readsRate, d)
	draws := drawOps(rng, len(offsets))
	lat := newSampleSet()
	openLoop(realClock{}, time.Now(), offsets, w.cfg.procs, lags, func(i int) func(*job) {
		return func(j *job) {
			if class, done := w.op(c, draws[i], t); class != "" {
				v := ms(done.Sub(j.due))
				lat.add(class, v)
				lat.add("all", v)
			}
		}
	})
	return lat
}

func (w *readsWorld) measure(rep *report, t *tally, rng *rand.Rand) error {
	c := newClient(w.cfg.procs, nil)
	defer c.close()
	open := w.cfg.window * 7 / 10
	lags := &lagLog{}
	runtime.GC()
	before := readRuntime()
	lat := w.openPhase(c, rng, open, t, lags)
	after := readRuntime()
	if !lags.valid() {
		return fmt.Errorf("run invalid: queue wait grew by %.1f ms over the open-loop phase (offered rate above capacity)", lags.growth())
	}
	peak := w.cfg.window - open
	peakRngs := make([]*rand.Rand, w.cfg.procs)
	for i := range peakRngs {
		peakRngs[i] = rand.New(rand.NewPCG(rng.Uint64(), uint64(i)))
	}
	peakOps, peakRate := closedLoop(w.cfg.procs, time.Now().Add(peak), readsSlice, func(ci int) int {
		if class, _ := w.op(c, drawOps(peakRngs[ci], 1)[0], t); class == "" {
			return 0
		}
		return 1
	})
	ops := len(lat.take("all"))
	for _, class := range []string{classRead, classPlan, classWrite} {
		rep.timing(class, lat.take(class), "ms")
	}
	plans := lat.take(classPlan)
	rep.set("explore_p50_s", medianOf(plans)/1e3, "s", len(plans), "served explorations, all plan-cache hits: the plan op's median")
	rep.set("peak_rps", peakRate, "1/s", peakOps, fmt.Sprintf("closed loop, %d clients, median of %v slices", w.cfg.procs, readsSlice))
	rep.set("success_ratio", 1-ratio(float64(t.failed.Load()+t.wrong.Load()), float64(t.attempted.Load())), "ratio", int(t.attempted.Load()), "")
	rep.set("live_heap_mb", liveHeapMB(), "MB", 1, fmt.Sprintf("HeapInuse after GC, %d sessions live", len(w.sessions)))
	rep.set("allocs_per_op", ratio(float64(after.mallocs-before.mallocs), float64(ops)), "count", ops, fmt.Sprintf("process mallocs per completed open-loop op; %d collections in the phase", after.numGC-before.numGC))
	return nil
}

func (w *readsWorld) measureTraced(rep *report, t *tally, rng *rand.Rand, probe *planProbe, snaps, restores, sizes []float64) error {
	half := w.cfg.window / 2
	lagsA := &lagLog{}
	plain := newClient(w.cfg.procs, nil)
	defer plain.close()
	untraced := w.openPhase(plain, rng, half, t, lagsA)

	traced := newClient(w.cfg.procs, w.spans)
	defer traced.close()
	lags := &lagLog{}
	w.planHits.Store(0)
	w.planAll.Store(0)
	w.on.Store(true)
	runtime.GC()
	before := readRuntime()
	lat := w.openPhase(traced, rng, half, t, lags)
	after := readRuntime()
	w.on.Store(false)
	if !lags.valid() || !lagsA.valid() {
		return fmt.Errorf("run invalid: queue wait grew over the window (offered rate above capacity)")
	}
	spans := w.spans.snapshot()
	servedLayers(rep, spans)
	probe.report(rep, spans)
	st, err := w.rep.stats(plain)
	if err != nil {
		return err
	}
	rep.set("cache.hit_ratio", ratio(float64(w.planHits.Load()), float64(w.planAll.Load())), "ratio", int(w.planAll.Load()), "plan responses marked cached")
	rep.set("cache.bytes", float64(st.CacheBytes), "bytes", 1, "/v1/stats cacheBytes")
	rep.set("core.snapshot_p50_ms", medianOf(snaps), "ms", len(snaps), "Session.Snapshot of a first-iteration session per body")
	rep.set("core.snapshot_bytes", medianOf(sizes), "bytes", len(sizes), "encoded snapshot")
	rep.set("core.restore_p50_ms", medianOf(restores), "ms", len(restores), "RestoreSession of those snapshots")
	runtimeMetrics(rep, before, after, len(lat.take("all")))
	driverMetrics(rep, lags)
	rep.set("bench.trace_overhead_share", overheadShare(untraced.take(classRead), lat.take(classRead)), "ratio", len(lat.take(classRead)), "traced over untraced median read latency, minus one")
	return writeSpans(w.cfg, "session-reads", w.spans, spans)
}
