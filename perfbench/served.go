package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"poiesis"
	"poiesis/internal/config"
	"poiesis/internal/core"
	"poiesis/internal/sim"
)

// replica is one poiesis.NewServer mounted on a loopback listener inside
// the benchmark process.
type replica struct {
	url  string
	ps   *poiesis.PlanServer
	srv  *http.Server
	done chan struct{}
}

func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// baseServerConfig is the served workloads' configuration: the server's own
// tracing off and its logs discarded, so end-to-end runs measure the lean
// request path.
func baseServerConfig() poiesis.ServerConfig {
	return poiesis.ServerConfig{
		TraceSample: -1,
		Logf:        func(string, ...any) {},
	}
}

// serve mounts ps on ln, behind a handler tap when spans is non-nil.
func serve(id string, ln net.Listener, ps *poiesis.PlanServer, spans *recorder, on *atomic.Bool) *replica {
	var h http.Handler = ps
	if spans != nil {
		h = handlerTap{next: ps, node: id, spans: spans, on: on}
	}
	r := &replica{
		url:  "http://" + ln.Addr().String(),
		ps:   ps,
		srv:  &http.Server{Handler: h},
		done: make(chan struct{}),
	}
	go func() {
		defer close(r.done)
		if err := r.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Println("perfbench: serve:", err)
		}
	}()
	return r
}

// stop shuts the listener down, waits for in-flight requests and the serve
// goroutine, then retires the server's background workers.
func (r *replica) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = r.srv.Shutdown(ctx) // a timeout leaves the process to exit; nothing to recover
	<-r.done
	_ = r.ps.Close() // Close never fails; the error is for the interface
}

// stats fetches /v1/stats from a replica.
func (r *replica) stats(c *client) (statsBody, error) {
	var sb statsBody
	rp, err := c.do(http.MethodGet, r.url+"/v1/stats", nil, "")
	if err := expect(rp, err, http.StatusOK); err != nil {
		return sb, err
	}
	return sb, json.Unmarshal(rp.body, &sb)
}

// body is one session-creation request: a flow, the scale and seed of its
// synthetic binding, and a planning configuration document.
type body struct {
	Flow   string
	Scale  int
	Seed   uint64
	Config string
}

func (b body) json() []byte {
	return fmt.Appendf(nil, `{"flow":{"builtin":%q},"scale":%d,"seed":%d,"config":%s}`, b.Flow, b.Scale, b.Seed, b.Config)
}

// inProcess builds what the server builds for this body — the flow, its
// binding and the planner — so results can be computed through core.
func (b body) inProcess(probe *planProbe) (*core.Session, error) {
	g, ok := poiesis.BuiltinFlow(b.Flow)
	if !ok {
		return nil, fmt.Errorf("unknown builtin flow %q", b.Flow)
	}
	doc, err := config.Parse([]byte(b.Config))
	if err != nil {
		return nil, err
	}
	reg, err := doc.Registry()
	if err != nil {
		return nil, err
	}
	opts, err := doc.Options()
	if err != nil {
		return nil, err
	}
	planner := core.NewPlanner(probe.registry(reg), opts)
	return core.NewSession(planner, g, sim.AutoBinding(g, b.Scale, b.Seed)), nil
}

// servedLayers derives the server, transport and cluster layer metrics from
// the spans of a traced window: client spans, handler spans from every
// replica, linked by request ID.
func servedLayers(rep *report, spans []span) {
	self := selfTimes(spans)
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	handler := newSampleSet()
	var transport, hop, planBytes []float64
	var requests, forwarded, cacheGets, cachePuts int
	for _, s := range spans {
		switch {
		case s.Name == "handler" && s.Class == "cache_get":
			cacheGets++
		case s.Name == "handler" && s.Class == "cache_put":
			cachePuts++
		}
		if s.Name != "client" {
			continue
		}
		var entry *span
		for _, k := range children[s.ID] {
			if k.Name == "handler" {
				entry = &k
				break
			}
		}
		if entry == nil {
			continue
		}
		requests++
		transport = append(transport, float64(self[s.ID])/1e6)
		serving := *entry
		for _, k := range children[entry.ID] {
			if k.Name == "handler" && (k.Class == classRead || k.Class == classPlan || k.Class == classWrite) {
				serving = k
				forwarded++
				hop = append(hop, float64(self[entry.ID])/1e6)
				break
			}
		}
		handler.add(serving.Class, float64(serving.dur())/1e6)
		if serving.Class == classPlan {
			planBytes = append(planBytes, float64(serving.Bytes))
		}
	}
	for _, class := range []string{classRead, classPlan, classWrite} {
		xs := handler.take(class)
		rep.set("server."+class+".handler_p50_ms", medianOf(xs), "ms", len(xs), "handler time on the replica that served the request")
	}
	rep.set("http.transport_p50_ms", medianOf(transport), "ms", len(transport), "client latency minus entry handler time")
	rep.set("server.plan.resp_bytes", medianOf(planBytes), "bytes", len(planBytes), "median plan response body")
	rep.set("cluster.forward_ratio", ratio(float64(forwarded), float64(requests)), "ratio", requests, "requests served by a replica other than the one they entered")
	rep.set("cluster.hop_p50_ms", medianOf(hop), "ms", len(hop), "entry handler time minus the owner's handler time")
	rep.set("cluster.peer_cache_get_count", float64(cacheGets), "count", cacheGets, "intra-cluster plan-cache fetches in the traced window")
	rep.set("cluster.peer_cache_put_count", float64(cachePuts), "count", cachePuts, "intra-cluster plan-cache write-throughs in the traced window")

	var puts, recBytes, lists []float64
	for _, s := range spans {
		switch s.Name {
		case "backend.put":
			puts = append(puts, float64(s.dur())/1e6)
			recBytes = append(recBytes, float64(s.Bytes))
		case "backend.list":
			lists = append(lists, float64(s.dur())/1e9)
		}
	}
	rep.set("backend.put_count", float64(len(puts)), "count", len(puts), "record writes in the traced window")
	rep.set("backend.put_p50_ms", medianOf(puts), "ms", len(puts), "")
	rep.set("backend.record_bytes_p50", medianOf(recBytes), "bytes", len(recBytes), "JSON size of the records written")
	rep.set("backend.list_s", medianOf(lists), "s", len(lists), "List during server construction (restore)")
}

// driverMetrics reports the open-loop generator's own health.
func driverMetrics(rep *report, lags *lagLog) {
	l, w := lags.lags(), lags.waits()
	ls := summarize(l)
	rep.set("driver.lag_p99_ms", ls.Tail, "ms", ls.N, fmt.Sprintf("generator release minus due time, median of %d blocks' p%g", len(ls.BlockTails), 100*ls.TailPct))
	rep.set("driver.queue_wait_p50_ms", medianOf(w), "ms", len(w), "due time to a free connection")
}

// snapshotLayer times core.Session.Snapshot and core.RestoreSession on a
// session, reps times each.
func snapshotLayer(sess *core.Session, planner *core.Planner, reps int, snaps, restores, sizes *[]float64) error {
	for i := 0; i < reps; i++ {
		start := time.Now()
		snap, err := sess.Snapshot()
		*snaps = append(*snaps, ms(time.Since(start)))
		if err != nil {
			return err
		}
		if i == 0 {
			b, err := json.Marshal(snap)
			if err != nil {
				return err
			}
			*sizes = append(*sizes, float64(len(b)))
		}
		start = time.Now()
		if _, err := core.RestoreSession(planner, snap); err != nil {
			return err
		}
		*restores = append(*restores, ms(time.Since(start)))
	}
	return nil
}
