package main

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"poiesis/internal/core"
	"poiesis/internal/etl"
	"poiesis/internal/fcp"
	"poiesis/internal/measures"
	"poiesis/internal/sim"
	"poiesis/internal/skyline"
)

// planProbe times the planner layer from outside: each core plan the
// benchmark runs is a "core.plan" span, and the pattern applications made
// under it are "fcp.apply" children through a timed registry. Only one
// probed plan runs at a time, so the parent of an application is simply
// the plan in flight. A probe with nil spans records nothing.
type planProbe struct {
	spans  *recorder
	on     atomic.Bool
	parent atomic.Int64

	mu    sync.Mutex
	stats []core.Stats
}

func newPlanProbe(spans *recorder) *planProbe {
	p := &planProbe{spans: spans}
	p.on.Store(spans != nil)
	return p
}

// registry returns reg, timed when the probe records.
func (p *planProbe) registry(reg *fcp.Registry) *fcp.Registry {
	if p == nil || p.spans == nil {
		return reg
	}
	return timedRegistry(reg, p.spans, &p.on, &p.parent)
}

// explore runs one exploration of sess, as a span when recording.
func (p *planProbe) explore(ctx context.Context, sess *core.Session) (*core.Result, error) {
	if p == nil || p.spans == nil || !p.on.Load() {
		return sess.ExploreContext(ctx)
	}
	id := p.spans.newID()
	p.parent.Store(id)
	start := time.Now()
	res, err := sess.ExploreContext(ctx)
	p.spans.add(span{ID: id, Name: "core.plan", Start: p.spans.at(start), End: p.spans.at(time.Now())})
	if err == nil {
		p.mu.Lock()
		p.stats = append(p.stats, res.Stats)
		p.mu.Unlock()
	}
	return res, err
}

// report fills the planner and pattern layer metrics from the spans.
func (p *planProbe) report(rep *report, spans []span) {
	self := selfTimes(spans)
	var plans, selfs []float64
	applies := map[int64]int{}
	busy := map[int64]int64{}
	for _, s := range spans {
		switch s.Name {
		case "core.plan":
			plans = append(plans, float64(s.dur())/1e6)
			selfs = append(selfs, float64(self[s.ID])/1e6)
		case "fcp.apply":
			applies[s.Parent]++
			busy[s.Parent] += s.dur()
		}
	}
	n := len(plans)
	rep.set("core.plan_p50_ms", medianOf(plans), "ms", n, "PlanContext wall time of the benchmark's own core plans")
	rep.set("core.plan_self_p50_ms", medianOf(selfs), "ms", n, "plan wall time outside the union of pattern applications")
	var counts, busys []float64
	for id := range applies {
		counts = append(counts, float64(applies[id]))
		busys = append(busys, float64(busy[id])/1e9)
	}
	rep.set("fcp.apply_count", medianOf(counts), "count", len(counts), "pattern applications per plan")
	rep.set("fcp.apply_busy_s", medianOf(busys), "s", len(busys), "summed application time per plan")
	p.mu.Lock()
	defer p.mu.Unlock()
	var gen, dedup, pruned, eval []float64
	for _, st := range p.stats {
		gen = append(gen, float64(st.Generated))
		dedup = append(dedup, ratio(float64(st.Deduped), float64(st.Generated)))
		pruned = append(pruned, float64(st.StaticPruned))
		eval = append(eval, float64(st.Evaluated))
	}
	rep.set("core.generated", medianOf(gen), "count", len(gen), "Result.Stats per plan")
	rep.set("core.dedup_ratio", medianOf(dedup), "ratio", len(dedup), "Deduped / Generated")
	rep.set("core.pruned", medianOf(pruned), "count", len(pruned), "StaticPruned per plan")
	rep.set("core.evaluated", medianOf(eval), "count", len(eval), "Evaluated per plan")
}

// layerBusy is one replayed exploration's time per layer.
type layerBusy struct {
	clone, fingerprint, conekeys, eval, estimate, skyline time.Duration
	fpAllocsPerCall                                       float64
	coneHits, coneMisses                                  int64
}

// replayLayers re-derives a planning result layer by layer through each
// layer's public functions — core.Replay, etl Clone/Fingerprint/ConeKeys,
// sim Engine.EvaluateDelta with one shared EvalCache, the measures
// estimator and skyline.Compute — timing each, and checks the rebuilt
// designs and frontier against the result. It returns the busy time per
// layer and the disagreements found.
func replayLayers(res *core.Result, reg *fcp.Registry, simCfg sim.Config, bind sim.Binding) (layerBusy, []string, error) {
	var lb layerBusy
	var wrong []string
	initial := res.Initial.Graph
	engine := sim.NewEngine(simCfg)
	cache := sim.NewEvalCache()
	// The estimator is anchored on the initial flow, as the planner's is.
	prof, batch, err := engine.EvaluateDelta(initial, bind, cache)
	if err != nil {
		return lb, nil, err
	}
	est := measures.NewEstimator(measures.BaselineConfig(initial, prof, batch))
	clones := make([]*etl.Graph, 0, len(res.Alternatives))
	vecs := make([][]float64, 0, len(res.Alternatives))
	for i := range res.Alternatives {
		alt := &res.Alternatives[i]
		g, err := core.Replay(reg, initial, alt.Applications)
		if err != nil {
			return lb, nil, err
		}
		t0 := time.Now()
		clones = append(clones, g.Clone())
		t1 := time.Now()
		fp := g.Fingerprint()
		t2 := time.Now()
		order, err := g.TopoOrder()
		if err != nil {
			return lb, nil, err
		}
		t3 := time.Now()
		g.ConeKeys(order)
		t4 := time.Now()
		prof, batch, err := engine.EvaluateDelta(g, bind, cache)
		if err != nil {
			return lb, nil, err
		}
		t5 := time.Now()
		rep := est.Estimate(g, prof, batch)
		t6 := time.Now()
		lb.clone += t1.Sub(t0)
		lb.fingerprint += t2.Sub(t1)
		lb.conekeys += t4.Sub(t3)
		lb.eval += t5.Sub(t4)
		lb.estimate += t6.Sub(t5)
		if fp != alt.Graph.Fingerprint() && len(wrong) < 3 {
			wrong = append(wrong, "replayed design "+alt.Label()+" has another fingerprint")
		}
		v := rep.Vector(res.Dims)
		if want := alt.Report.Vector(res.Dims); !slices.Equal(v, want) && len(wrong) < 3 {
			wrong = append(wrong, "re-simulated design "+alt.Label()+" has other scores")
		}
		vecs = append(vecs, v)
	}
	t0 := time.Now()
	sky := skyline.Compute(vecs)
	lb.skyline = time.Since(t0)
	if !slices.Equal(sky, res.SkylineIdx) {
		wrong = append(wrong, "recomputed skyline differs from the planner's")
	}
	// Clones of replayed designs carry no cached fingerprint, so this pass
	// counts the allocations of a full fingerprint computation.
	before := readRuntime()
	for _, c := range clones {
		c.Fingerprint()
	}
	after := readRuntime()
	lb.fpAllocsPerCall = ratio(float64(after.mallocs-before.mallocs), float64(len(clones)))
	lb.coneHits, lb.coneMisses = cache.Stats()
	return lb, wrong, nil
}
