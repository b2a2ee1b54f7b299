package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"poiesis/internal/core"
	"poiesis/internal/etl"
	"poiesis/internal/fcp"
	"poiesis/internal/measures"
	"poiesis/internal/policy"
	"poiesis/internal/sim"
	"poiesis/internal/tpcds"
	"poiesis/internal/viz"
)

// explore-fig4: the paper's Fig. 4 run in process — an exhaustive depth-2
// exploration of TPC-DS SalesETL at scale 300 with 32 simulation runs,
// 2,350 alternatives. The loop is closed: one analyst iteration at a time,
// each on a fresh planner and session: explore (the plan op), inspect a
// fixed number of designs spread evenly over the space (reads: the
// rendered Fig. 5 relative-change bars and the structural diff; the space
// is generated in the same order for every binding, so every seed reads
// the same designs, where the frontier differs by seed), and select
// frontier designs, integrating each into the flow by replaying its pattern
// applications (the writes: the first on the exploring session, the others
// on sessions that adopt its result, as sessions sharing a cached plan do).
//
// Reads and writes take a fraction of a millisecond, so each iteration
// takes many of them: a run's ~20 iterations give over a thousand reads and
// a few hundred writes, and their medians do not hang on a handful of
// samples. Set-up is repeated at the start and again after every
// iteration, so setup_s is read across the whole run, not off one burst.
const (
	fig4Scale            = 300
	fig4Alternatives     = 2350
	fig4Reads            = 60
	fig4Writes           = 24
	fig4SetupReps        = 20
	fig4SetupRepsPerIter = 4
)

func fig4Options() core.Options {
	cfg := sim.DefaultConfig()
	cfg.DefaultRows = fig4Scale
	cfg.Runs = 32
	return core.Options{
		Policy:          policy.Exhaustive{},
		Depth:           2,
		MaxAlternatives: 4096,
		Sim:             cfg,
	}
}

// fig4Ready is what the analyst has before exploring: the imported flow,
// its binding, and the initial design's measures.
type fig4Ready struct {
	flow *etl.Graph
	bind sim.Binding
	base *measures.Report
}

func fig4Setup(seed uint64) (fig4Ready, error) {
	flow := tpcds.SalesETL()
	bind := tpcds.Binding(flow, fig4Scale, seed)
	prof, batch, err := sim.NewEngine(fig4Options().Sim).Evaluate(flow, bind)
	if err != nil {
		return fig4Ready{}, err
	}
	est := measures.NewEstimator(measures.BaselineConfig(flow, prof, batch))
	return fig4Ready{flow: flow, bind: bind, base: est.Estimate(flow, prof, batch)}, nil
}

func runExploreFig4(cfg runConfig, rep *report, t *tally) error {
	bindSeed := cfg.seed + 1
	var ready fig4Ready
	var setups []float64
	// setUp times n set-ups; every one must give the first one's measures.
	setUp := func(n int) error {
		for i := 0; i < n; i++ {
			start := time.Now()
			r, err := fig4Setup(bindSeed)
			if err != nil {
				return err
			}
			setups = append(setups, time.Since(start).Seconds())
			if ready.flow == nil {
				ready = r
			} else if !slices.Equal(r.base.Vector(measures.AllCharacteristics()), ready.base.Vector(measures.AllCharacteristics())) {
				t.mismatch("set-ups of the same binding disagree on the initial design's measures")
			}
		}
		return nil
	}
	if err := setUp(fig4SetupReps); err != nil {
		return err
	}

	// The reference runs the sequential pipeline, an independent path to
	// the same result.
	refOpts := fig4Options()
	refOpts.Streaming = core.StreamingOff
	ref, err := core.NewPlanner(nil, refOpts).PlanContext(context.Background(), ready.flow, ready.bind)
	if err != nil {
		return fmt.Errorf("reference exploration: %w", err)
	}
	if len(ref.Alternatives) != fig4Alternatives {
		return fmt.Errorf("reference exploration produced %d alternatives, want %d", len(ref.Alternatives), fig4Alternatives)
	}
	refDigest := resultDigest(ref)
	ref = nil

	var spans *recorder
	if cfg.traced {
		spans = newRecorder()
	}
	probe := newPlanProbe(spans)
	probe.on.Store(false)
	reg := probe.registry(fcp.DefaultRegistry())
	lat := newSampleSet()
	var last *core.Session
	var lastRes *core.Result
	// iterate runs one analyst iteration and records its latencies.
	iterate := func() (*core.Result, error) {
		last = core.NewSession(core.NewPlanner(reg, fig4Options()), ready.flow, ready.bind)
		t.attempted.Add(1)
		start := time.Now()
		res, err := probe.explore(context.Background(), last)
		if err != nil {
			t.fail(err)
			return nil, err
		}
		lat.add(classPlan, ms(time.Since(start)))
		lastRes = res
		if len(res.Alternatives) != fig4Alternatives || resultDigest(res) != refDigest {
			t.mismatch(fmt.Sprintf("exploration: %d alternatives, skyline digest %s, want %s", len(res.Alternatives), resultDigest(res), refDigest))
		}
		if !slices.Equal(res.Initial.Report.Vector(res.Dims), ready.base.Vector(res.Dims)) {
			t.mismatch("the exploration's initial design disagrees with the set-up evaluation")
		}
		// The analyst looks at the result before clicking; a collection
		// stands in for that think time, in which the runtime would finish
		// collecting the exploration's garbage, so the sub-millisecond reads
		// and the write below are not timed against a collection in flight.
		runtime.GC()
		sky := res.Skyline()
		for i := 0; i < fig4Reads; i++ {
			alt := &res.Alternatives[i*len(res.Alternatives)/fig4Reads]
			t.attempted.Add(1)
			start := time.Now()
			bars := viz.ASCIIBars(viz.RelativeBars(measures.Relative(alt.Report, res.Initial.Report)), nil)
			diff := etl.DiffFlows(res.Initial.Graph, alt.Graph).String()
			lat.add(classRead, ms(time.Since(start)))
			if bars == "" || diff == "" {
				t.mismatch("empty view of " + alt.Label())
			}
		}
		for k := 0; k < fig4Writes; k++ {
			sess, pick := last, k%len(sky)
			if k > 0 {
				sess = core.NewSession(last.Planner(), ready.flow, ready.bind)
				if err := sess.AdoptResult(res); err != nil {
					t.fail(err)
					return nil, err
				}
			}
			t.attempted.Add(1)
			start := time.Now()
			alt, err := sess.Select(pick)
			if err == nil {
				_, err = core.ReplayVerified(reg, ready.flow, alt)
			}
			if err != nil {
				t.fail(err)
				return nil, err
			}
			lat.add(classWrite, ms(time.Since(start)))
			if alt.Label() != sky[pick].Label() {
				t.mismatch("selected " + alt.Label() + ", want " + sky[pick].Label())
			}
		}
		return res, setUp(fig4SetupRepsPerIter)
	}

	if !cfg.traced {
		runtime.GC()
		before := readRuntime()
		start := time.Now()
		n := 0
		for deadline := start.Add(cfg.window); time.Now().Before(deadline); n++ {
			if _, err := iterate(); err != nil {
				return err
			}
		}
		secs := time.Since(start).Seconds()
		after := readRuntime()
		for _, class := range []string{classRead, classPlan, classWrite} {
			rep.timing(class, lat.take(class), "ms")
		}
		plans := lat.take(classPlan)
		rep.set("explore_p50_s", medianOf(plans)/1e3, "s", len(plans), "one exhaustive Fig. 4 exploration")
		rep.set("peak_rps", float64(n)/secs, "1/s", n, "analyst iterations per second, one client")
		rep.set("setup_s", medianOf(setups), "s", len(setups), "flow and binding build plus the initial design's evaluation, repeated through the run")
		rep.set("success_ratio", 1-ratio(float64(t.failed.Load()+t.wrong.Load()), float64(t.attempted.Load())), "ratio", int(t.attempted.Load()), "")
		rep.set("live_heap_mb", liveHeapMB(), "MB", 1, "HeapInuse after GC, last session and result live")
		runtime.KeepAlive(last)
		runtime.KeepAlive(lastRes)
		rep.set("allocs_per_op", ratio(float64(after.mallocs-before.mallocs), float64(n)), "count", n, "process mallocs per analyst iteration, its set-up repetitions included")
		return nil
	}

	// Traced run: the first half untraced, the second traced. Every traced
	// exploration is then re-derived layer by layer, outside its timing.
	half := time.Now().Add(cfg.window / 2)
	for time.Now().Before(half) {
		if _, err := iterate(); err != nil {
			return err
		}
	}
	untraced := lat.take(classPlan)
	lat = newSampleSet()
	probe.on.Store(true)
	var busy []layerBusy
	// The runtime window sums each traced iteration, excluding the replay.
	var before, after runtimeSample
	n := 0
	for end := half.Add(cfg.window / 2); time.Now().Before(end) || n == 0; n++ {
		runtime.GC()
		b := readRuntime()
		res, err := iterate()
		if err != nil {
			return err
		}
		a := readRuntime()
		after.mallocs += a.mallocs - b.mallocs
		after.allocBytes += a.allocBytes - b.allocBytes
		after.gcCPU += a.gcCPU - b.gcCPU
		after.totalCPU += a.totalCPU - b.totalCPU
		probe.on.Store(false)
		lb, wrong, err := replayLayers(res, fcp.DefaultRegistry(), fig4Options().Sim, ready.bind)
		probe.on.Store(true)
		if err != nil {
			return err
		}
		for _, w := range wrong {
			t.mismatch(w)
		}
		busy = append(busy, lb)
	}
	probe.on.Store(false)
	all := spans.snapshot()
	probe.report(rep, all)
	pick := func(f func(layerBusy) float64) float64 {
		xs := make([]float64, len(busy))
		for i, b := range busy {
			xs[i] = f(b)
		}
		return medianOf(xs)
	}
	nb := len(busy)
	rep.set("etl.clone_busy_s", pick(func(b layerBusy) float64 { return b.clone.Seconds() }), "s", nb, "Graph.Clone over every alternative, per exploration")
	rep.set("etl.fingerprint_busy_s", pick(func(b layerBusy) float64 { return b.fingerprint.Seconds() }), "s", nb, "uncached Graph.Fingerprint over every alternative")
	rep.set("etl.conekeys_busy_s", pick(func(b layerBusy) float64 { return b.conekeys.Seconds() }), "s", nb, "Graph.ConeKeys over every alternative")
	rep.set("etl.fingerprint_allocs_per_call", pick(func(b layerBusy) float64 { return b.fpAllocsPerCall }), "count", nb, "mallocs per uncached fingerprint")
	rep.set("sim.eval_busy_s", pick(func(b layerBusy) float64 { return b.eval.Seconds() }), "s", nb, "Engine.EvaluateDelta over every alternative, one shared EvalCache")
	rep.set("sim.cone_hit_ratio", pick(func(b layerBusy) float64 {
		return ratio(float64(b.coneHits), float64(b.coneHits+b.coneMisses))
	}), "ratio", nb, "EvalCache.Stats hits over lookups")
	rep.set("measures.estimate_busy_s", pick(func(b layerBusy) float64 { return b.estimate.Seconds() }), "s", nb, "Estimator.Estimate over every alternative")
	rep.set("skyline.busy_ms", pick(func(b layerBusy) float64 { return ms(b.skyline) }), "ms", nb, "skyline.Compute over the whole space")
	rep.set("driver.lag_p99_ms", 0, "ms", 0, "closed loop: no schedule")
	rep.set("driver.queue_wait_p50_ms", 0, "ms", 0, "closed loop: no queue")
	runtimeMetrics(rep, before, after, n)
	traced := lat.take(classPlan)
	rep.set("bench.trace_overhead_share", overheadShare(untraced, traced), "ratio", len(traced), "traced over untraced median exploration, minus one")
	return writeSpans(cfg, "explore-fig4", spans, all)
}
