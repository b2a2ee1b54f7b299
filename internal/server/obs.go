package server

import (
	"net/http"
	"time"

	"poiesis/internal/obs"
)

// serverMetrics bundles the server's metric registry with the handles its
// hot paths use. Handles are resolved once at construction — request serving
// never takes the registry's family locks beyond the label-child lookup.
type serverMetrics struct {
	reg *obs.Registry

	httpRequests *obs.CounterVec   // route, method, code class
	httpLatency  *obs.HistogramVec // route
	sseStreams   *obs.Gauge
	stageSpans   *obs.HistogramVec // planner stage, one observation per plan run
	peerOps      *obs.HistogramVec // peer, op
	peerErrs     *obs.CounterVec   // peer, op
	// recordBytes is fed by the encoding backends (disk, SQL) through
	// recordSizer; rederive counts restored plan intents re-derived into
	// live results, indexed by the resultSource that answered.
	recordBytes *obs.Histogram
	rederive    [numResultSources]*obs.Counter

	// Mirrors of counters that live elsewhere (server atomics, plan cache,
	// session store): synced by syncMetrics at scrape time instead of
	// double-counting on the hot path.
	plansComputed *obs.Counter
	plansCached   *obs.Counter
	evaluations   *obs.Counter
	cacheHits     *obs.Counter
	cacheMisses   *obs.Counter
	cacheEntries  *obs.Gauge
	cacheBytes    *obs.Gauge
	sessions      *obs.Gauge
	restored      *obs.Gauge
	persistErrs   *obs.Counter
	evictQueue    *obs.Gauge
	evictions     *obs.Counter
	evictDropped  *obs.Counter
}

func newServerMetrics() *serverMetrics {
	reg := obs.NewRegistry()
	m := &serverMetrics{
		reg: reg,
		httpRequests: reg.CounterVec("poiesis_http_requests_total",
			"HTTP requests served, by route pattern, method and status class.",
			"route", "method", "code"),
		httpLatency: reg.HistogramVec("poiesis_http_request_duration_seconds",
			"HTTP request latency by route pattern.", nil, "route"),
		sseStreams: reg.Gauge("poiesis_sse_streams",
			"SSE plan streams currently open."),
		stageSpans: reg.HistogramVec("poiesis_planner_stage_duration_seconds",
			"Planner stage span per locally computed plan run (wall time summed across the stage's workers).",
			nil, "stage"),
		peerOps: reg.HistogramVec("poiesis_cluster_peer_op_duration_seconds",
			"Outbound cluster call latency by peer and op (forward, cache_get, cache_put).",
			nil, "peer", "op"),
		peerErrs: reg.CounterVec("poiesis_cluster_peer_op_errors_total",
			"Failed outbound cluster calls by peer and op.", "peer", "op"),
		plansComputed: reg.Counter("poiesis_plans_computed_total",
			"Plan runs computed locally (cache misses)."),
		plansCached: reg.Counter("poiesis_plans_cached_total",
			"Plan requests served from the cache tier (local hit or peer fetch)."),
		evaluations: reg.Counter("poiesis_evaluations_total",
			"Alternative flows evaluated by the simulation engine."),
		cacheHits: reg.Counter("poiesis_plan_cache_hits_total",
			"Plan cache lookups that hit."),
		cacheMisses: reg.Counter("poiesis_plan_cache_misses_total",
			"Plan cache lookups that missed."),
		cacheEntries: reg.Gauge("poiesis_plan_cache_entries",
			"Entries resident in the plan cache."),
		cacheBytes: reg.Gauge("poiesis_plan_cache_bytes",
			"Estimated bytes resident in the plan cache."),
		sessions: reg.Gauge("poiesis_sessions",
			"Live sessions (after TTL sweep)."),
		restored: reg.Gauge("poiesis_sessions_restored",
			"Sessions restored from the backend at startup."),
		persistErrs: reg.Counter("poiesis_session_persist_errors_total",
			"Failed session write-throughs to the backend."),
		evictQueue: reg.Gauge("poiesis_session_evict_queue",
			"Backend deletes queued for the eviction worker."),
		evictions: reg.Counter("poiesis_session_evictions_total",
			"Backend deletes completed by the eviction worker."),
		evictDropped: reg.Counter("poiesis_session_evict_dropped_total",
			"Evictions dropped because the eviction queue was full."),
	}
	m.recordBytes = reg.ValueHistogram("poiesis_session_record_bytes",
		"Encoded size of session records written by the disk and SQL backends.",
		[]float64{1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20})
	rederive := reg.CounterVec("poiesis_session_rederive_total",
		"Restored sessions whose last result was re-derived from its plan intent, by the tier that answered.",
		"source")
	for src := range m.rederive {
		m.rederive[src] = rederive.With(resultSource(src).String())
	}
	version, revision := obs.BuildInfo()
	reg.GaugeVec("poiesis_build_info",
		"Build identity of this replica; always 1.", "version", "revision").
		With(version, revision).Set(1)
	return m
}

// syncMetrics refreshes the mirrored counters and gauges from their sources
// of truth. Called once per /metrics scrape, so the serving paths keep their
// existing single atomic increments.
func (s *Server) syncMetrics() {
	m := s.metrics
	m.plansComputed.Set(s.plansComputed.Load())
	m.plansCached.Set(s.plansCached.Load())
	m.evaluations.Set(s.evaluations.Load())
	hits, misses, size, bytes := s.cache.stats()
	m.cacheHits.Set(hits)
	m.cacheMisses.Set(misses)
	m.cacheEntries.Set(int64(size))
	m.cacheBytes.Set(bytes)
	m.sessions.Set(int64(s.store.len()))
	m.restored.Set(int64(s.restored))
	m.persistErrs.Set(s.store.persistErrs.Load())
	m.evictQueue.Set(s.store.evictDepth.Load())
	m.evictions.Set(s.store.evictsDone.Load())
	m.evictDropped.Set(s.store.evictDropped.Load())
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.syncMetrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.reg.WritePrometheus(w)
}

// statusWriter captures the response status (and whether a header was ever
// written) for the request metrics and access log.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(b)
	sw.bytes += int64(n)
	return n, err
}

// flushStatusWriter adds Flush for underlying writers that support it, so
// SSE streaming and chunk-flushed forwarding still work through the metrics
// wrapper. Writers without Flush get a bare statusWriter, preserving the
// handler's "does this writer stream?" type assertion.
type flushStatusWriter struct {
	*statusWriter
	f http.Flusher
}

func (fw *flushStatusWriter) Flush() {
	if fw.statusWriter.status == 0 {
		fw.statusWriter.status = http.StatusOK
	}
	fw.f.Flush()
}

// wrapWriter wraps w for status capture, preserving http.Flusher exactly
// when the underlying writer has it.
func wrapWriter(w http.ResponseWriter) (http.ResponseWriter, *statusWriter) {
	sw := &statusWriter{ResponseWriter: w}
	if f, ok := w.(http.Flusher); ok {
		return &flushStatusWriter{statusWriter: sw, f: f}, sw
	}
	return sw, sw
}

// codeClass buckets a status code for the request counter ("2xx", "4xx"...).
func codeClass(status int) string {
	switch {
	case status >= 500:
		return "5xx"
	case status >= 400:
		return "4xx"
	case status >= 300:
		return "3xx"
	case status >= 200:
		return "2xx"
	default:
		return "1xx"
	}
}

// obsBackend decorates a SessionBackend with per-operation latency and
// error metrics labeled by the inner backend's name. It is also how the
// server keeps its hands off the caller's backend struct: the decorator is
// server-owned, so nothing server-scoped is ever written onto a backend
// that might be shared with another server.
type obsBackend struct {
	inner SessionBackend
	errs  *obs.CounterVec
	put   *obs.Histogram
	get   *obs.Histogram
	del   *obs.Histogram
	list  *obs.Histogram
	sweep *obs.Histogram
}

func newObsBackend(inner SessionBackend, reg *obs.Registry) *obsBackend {
	ops := reg.HistogramVec("poiesis_backend_op_duration_seconds",
		"Session backend operation latency by backend name and op.",
		nil, "backend", "op")
	name := inner.Name()
	return &obsBackend{
		inner: inner,
		errs: reg.CounterVec("poiesis_backend_op_errors_total",
			"Failed session backend operations by backend name and op.",
			"backend", "op"),
		put:   ops.With(name, "put"),
		get:   ops.With(name, "get"),
		del:   ops.With(name, "delete"),
		list:  ops.With(name, "list"),
		sweep: ops.With(name, "sweep"),
	}
}

func (b *obsBackend) observe(h *obs.Histogram, op string, start time.Time, err error) {
	h.Observe(time.Since(start))
	if err != nil {
		b.errs.With(b.inner.Name(), op).Inc()
	}
}

func (b *obsBackend) Put(rec *SessionRecord) error {
	start := time.Now()
	err := b.inner.Put(rec)
	b.observe(b.put, "put", start, err)
	return err
}

func (b *obsBackend) Get(id string) (*SessionRecord, error) {
	start := time.Now()
	rec, err := b.inner.Get(id)
	b.observe(b.get, "get", start, err)
	return rec, err
}

func (b *obsBackend) Delete(id string) error {
	start := time.Now()
	err := b.inner.Delete(id)
	b.observe(b.del, "delete", start, err)
	return err
}

func (b *obsBackend) List() ([]*SessionRecord, error) {
	start := time.Now()
	recs, err := b.inner.List()
	b.observe(b.list, "list", start, err)
	return recs, err
}

func (b *obsBackend) Sweep(cutoff time.Time) ([]string, error) {
	start := time.Now()
	ids, err := b.inner.Sweep(cutoff)
	b.observe(b.sweep, "sweep", start, err)
	return ids, err
}

func (b *obsBackend) Name() string { return b.inner.Name() }
