// Package server exposes the POIESIS explore-select loop as a multi-session
// HTTP service: the paper describes an interactive tool where an analyst
// uploads an ETL flow, explores quality-improved alternatives and
// iteratively selects redesigns from the Pareto frontier — this package
// serves that loop to many concurrent analysts from one process.
//
// Architecture:
//
//	session store — concurrency-safe registry of live sessions with TTL
//	                eviction; state-changing operations on one session
//	                serialize (concurrent ones fail fast with 409), so the
//	                underlying core.Session is never raced; reads are served
//	                from memory, while every state change writes a versioned
//	                session record through to a pluggable SessionBackend
//	                (in-memory by default, crash-safe disk snapshots via
//	                NewDiskBackend) and startup restores the backend's
//	                records, so sessions survive restarts; records hold
//	                intent (flow, binding, history, the last plan's key),
//	                and a restored session re-derives its result from the
//	                plan cache, a peer's cache or a re-plan on first access;
//	plan cache    — fingerprint-keyed (flow fingerprint + canonicalized
//	                options + binding, see core.PlanKey): identical plans
//	                across sessions are served from cache instead of
//	                recomputed, and concurrent identical requests collapse
//	                onto one computation;
//	handlers      — REST + Server-Sent Events: per-alternative progress
//	                streams over SSE, and a dropped client cancels its
//	                in-flight run through the request context.
//
// In cluster mode (Config.Cluster) the server is one shard-aware replica:
// session requests route by consistent-hash ownership of the session ID
// (remote ones are proxied to the owner, one hop at most), the plan cache
// gains a shared tier keyed by canonical plan-key ownership, and startup
// restores only the backend records the ring assigns to this replica.
//
// Every request carries a request ID (X-Poiesis-Request-ID, minted when the
// client sends none) that is echoed on the response, propagated on cluster
// forwards and intra-cluster cache calls, stamped on the request-scoped log
// lines, and written to the structured access log (Config.AccessLogf) — so a
// slow forwarded request is greppable on every replica it touched. /metrics
// exposes the service's counters, gauges and latency histograms in the
// Prometheus text format.
//
// Endpoints:
//
//	GET    /metrics                     Prometheus text exposition
//	GET    /v1/traces                   index of retained distributed traces
//	GET    /v1/traces/{id}              one trace's span tree, merged across
//	                                    replicas (?format=chrome for Chrome
//	                                    trace-event JSON; ?local=1 for this
//	                                    replica's fragment only)
//	GET    /v1/healthz                  liveness + build info
//	GET    /v1/readyz                   readiness (restored + ring configured)
//	GET    /v1/cluster                  membership, ring and per-peer counters
//	GET    /v1/cache/{key}              peer cache fetch (intra-cluster)
//	PUT    /v1/cache/{key}              peer cache write-through (intra-cluster)
//	GET    /v1/stats                    service counters (cache, sessions)
//	GET    /v1/patterns                 the pattern palette
//	GET    /v1/flows                    builtin flow names
//	POST   /v1/sessions                 create a session from a flow upload
//	GET    /v1/sessions                 list sessions
//	GET    /v1/sessions/{id}            session detail + history
//	DELETE /v1/sessions/{id}            drop a session
//	POST   /v1/sessions/{id}/plan       run one exploration (SSE optional)
//	GET    /v1/sessions/{id}/trace      recent plan-run traces (stage spans)
//	GET    /v1/sessions/{id}/result     full last result as JSON
//	GET    /v1/sessions/{id}/skyline    frontier with full measure reports
//	GET    /v1/sessions/{id}/flow       current design (json|dot|xlm|ktr)
//	POST   /v1/sessions/{id}/select     integrate a skyline design
package server

import (
	"errors"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"poiesis/internal/cluster"
	"poiesis/internal/core"
	"poiesis/internal/obs"
)

// Config tunes the service.
type Config struct {
	// SessionTTL evicts sessions idle longer than this. Default 30m; <0
	// disables eviction.
	SessionTTL time.Duration
	// MaxSessions caps live sessions (creation returns 503 beyond it).
	// Default 1024.
	MaxSessions int
	// CacheCapacity bounds the plan cache entry count (secondary LRU bound).
	// Default 128.
	CacheCapacity int
	// CacheMaxBytes bounds the plan cache by estimated result size: entries
	// weigh alternatives × (graph + report) bytes, so one huge exploration
	// cannot pin hundreds of small ones out — nor vice versa. Default 64 MiB.
	CacheMaxBytes int64
	// Backend persists session records. Nil uses the in-memory backend
	// (sessions die with the process); NewDiskBackend gives crash-safe disk
	// snapshots that New restores on startup. The backend must have a single
	// writing server process.
	Backend SessionBackend
	// Cluster makes this server one shard-aware replica: sessions route to
	// the replica their ID hashes to (requests for remote sessions are
	// transparently forwarded, one hop at most), and the plan cache gains a
	// shared tier — on a local miss the key's owning replica is asked before
	// evaluating, and results are written through to the owner. Nil (the
	// default) is single-node mode, byte-for-byte the pre-cluster behavior.
	Cluster *cluster.Cluster
	// SSEKeepAlive is the interval between `: keepalive` comments on SSE
	// plan streams, so intermediary proxies don't drop a connection that is
	// silent between alternatives on a slow plan. Default 15s; <0 disables.
	SSEKeepAlive time.Duration
	// sseTick overrides the keepalive ticker; tests inject a channel they
	// drive by hand. Returns the tick channel and a stop function.
	sseTick func() (<-chan time.Time, func())
	// Logf reports restore progress, skipped snapshots and write-through
	// failures. Default log.Printf.
	Logf func(format string, args ...any)
	// AccessLogf, when non-nil, receives one structured line per served
	// request (request ID, method, path, route, status, duration, bytes).
	// Nil (the default) disables access logging — benchmarks and tests
	// should not drown in per-request lines; `poiesis serve` wires it to
	// the process logger.
	AccessLogf func(format string, args ...any)
	// TraceSample controls head sampling for distributed traces: one in N
	// root requests is retained (0 and 1 both mean every trace). The first
	// root and any errored trace are always retained regardless of N.
	// Negative disables tracing entirely: no spans are created and the
	// request path allocates nothing for it.
	TraceSample int
	// TraceBuffer bounds the in-process ring of retained traces served by
	// /v1/traces. Default 128.
	TraceBuffer int
	// Now is the clock; tests inject a fake. Default time.Now.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.SessionTTL == 0 {
		c.SessionTTL = 30 * time.Minute
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.CacheCapacity <= 0 {
		c.CacheCapacity = 128
	}
	if c.CacheMaxBytes <= 0 {
		c.CacheMaxBytes = 64 << 20
	}
	if c.Backend == nil {
		c.Backend = NewMemoryBackend()
	}
	if c.SSEKeepAlive == 0 {
		c.SSEKeepAlive = 15 * time.Second
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	// A backend's own warnings (skipped snapshots or rows, temp-file
	// cleanup) must reach the same sink as the server's, unless the caller
	// already routed them elsewhere. The logger is injected on a derived
	// view sharing the backend's state — never written onto the caller's
	// struct, which may be shared with another server (two New calls
	// racing on one backend's Logf field).
	if db, ok := c.Backend.(*DiskBackend); ok && db.Logf == nil {
		c.Backend = db.WithLogf(c.Logf)
	}
	if sb, ok := c.Backend.(*SQLBackend); ok && sb.Logf == nil {
		c.Backend = sb.WithLogf(c.Logf)
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Server is the POIESIS planning service. It implements http.Handler; mount
// it directly on an http.Server.
type Server struct {
	cfg     Config
	store   *sessionStore
	cache   *planCache
	mux     *http.ServeMux
	cluster *cluster.Cluster
	metrics *serverMetrics
	// tracer collects distributed trace span trees; nil when Config
	// disabled tracing (TraceSample < 0).
	tracer *obs.Tracer
	// logger is the structured face of Config.Logf: every server log line
	// flows through it so request-scoped lines carry rid/trace_id/span_id.
	logger *slog.Logger

	plansComputed atomic.Int64
	plansCached   atomic.Int64
	evaluations   atomic.Int64
	// restored counts sessions recovered from the backend at startup.
	restored int
	// skippedForeign counts backend records left alone at startup because
	// the ring assigns them to another replica.
	skippedForeign int
}

// New builds the service. When the configured backend holds session records
// from a previous run (the disk backend after a restart), every non-expired
// session is restored before the first request is served; corrupted or
// unloadable records are skipped with a logged warning rather than aborting
// startup.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	metrics := newServerMetrics()
	// Every backend op — including the restore List/Sweep below and the
	// eviction worker's deletes — flows through the metrics decorator.
	if rs, ok := cfg.Backend.(recordSizer); ok {
		cfg.Backend = rs.withRecordSizes(metrics.recordBytes.ObserveValue)
	}
	cfg.Backend = newObsBackend(cfg.Backend, metrics.reg)
	ttl := cfg.SessionTTL
	if ttl < 0 {
		ttl = 0 // sessionStore treats 0 as "no eviction"
	}
	var tracer *obs.Tracer
	if cfg.TraceSample >= 0 {
		service := "poiesis"
		if cfg.Cluster != nil {
			service = cfg.Cluster.Self()
		}
		sample := cfg.TraceSample
		if sample == 0 {
			sample = 1
		}
		tracer = obs.NewTracer(service, sample, cfg.TraceBuffer)
	}
	logger := obs.NewLogfLogger(cfg.Logf)
	s := &Server{
		cfg:     cfg,
		store:   newSessionStore(ttl, cfg.MaxSessions, cfg.Now, cfg.Backend, logger, tracer),
		cache:   newPlanCache(cfg.CacheCapacity, cfg.CacheMaxBytes),
		mux:     http.NewServeMux(),
		cluster: cfg.Cluster,
		metrics: metrics,
		tracer:  tracer,
		logger:  logger,
	}
	if s.cluster != nil {
		s.cluster.SetObserver(func(peer, op string, d time.Duration, failed bool) {
			metrics.peerOps.With(peer, op).Observe(d)
			if failed {
				metrics.peerErrs.With(peer, op).Inc()
			}
		})
	}
	s.restoreSessions(ttl)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/traces", s.handleTraceIndex)
	s.mux.HandleFunc("GET /v1/traces/{id}", s.handleTraceGet)
	s.mux.HandleFunc("GET /v1/sessions/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /v1/cluster", s.handleCluster)
	s.mux.HandleFunc("GET /v1/cache/{key}", s.handleCacheGet)
	s.mux.HandleFunc("PUT /v1/cache/{key}", s.handleCachePut)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/patterns", s.handlePatterns)
	s.mux.HandleFunc("GET /v1/flows", s.handleFlows)
	s.mux.HandleFunc("POST /v1/sessions", s.handleCreateSession)
	s.mux.HandleFunc("GET /v1/sessions", s.handleListSessions)
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.handleGetSession)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDeleteSession)
	s.mux.HandleFunc("POST /v1/sessions/{id}/plan", s.handlePlan)
	s.mux.HandleFunc("GET /v1/sessions/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/sessions/{id}/skyline", s.handleSkyline)
	s.mux.HandleFunc("GET /v1/sessions/{id}/flow", s.handleFlow)
	s.mux.HandleFunc("POST /v1/sessions/{id}/select", s.handleSelect)
	return s
}

// restoreSessions reloads the backend's session records into the live store:
// records that expired while the service was down are purged, the rest are
// rebuilt (planner from the persisted config document, analyst state from
// the core snapshot) and adopted without a redundant write-back. A record
// that fails to load — corrupted snapshot, unknown future format, invalid
// flow — is skipped with a warning; one bad record must not take down the
// service or the healthy sessions next to it.
func (s *Server) restoreSessions(ttl time.Duration) {
	backend := s.cfg.Backend
	if ttl > 0 {
		cutoff := s.cfg.Now().Add(-ttl)
		// Sweep is best-effort per record: a partial error still comes with
		// the IDs that were removed, so report both.
		expired, err := backend.Sweep(cutoff)
		if err != nil {
			s.logger.Warn("server: sweeping expired session records failed", "err", err)
		}
		if len(expired) > 0 {
			s.logger.Info("server: dropped session records that expired while down", "count", len(expired))
		}
	}
	recs, err := backend.List()
	if err != nil {
		s.logger.Warn("server: listing session records failed; starting empty", "err", err)
		return
	}
	// If more records survive than the session cap admits, keep the most
	// recently used ones — the sessions analysts are most likely to return
	// to — not whichever IDs sort first.
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].LastUsed.After(recs[j].LastUsed) })
	for _, rec := range recs {
		if s.cfg.MaxSessions > 0 && s.restored >= s.cfg.MaxSessions {
			s.logger.Warn("server: session restore stopped at the session cap (most recently used kept)", "cap", s.cfg.MaxSessions)
			break
		}
		// In cluster mode each replica restores only the sessions the ring
		// assigns to it. Records owned by other replicas stay untouched in
		// the backend: session snapshots are self-contained, so moving a
		// record into the owner's backend is all a rebalance takes.
		if s.cluster != nil && !s.cluster.IsLocal(cluster.SessionKey(rec.ID)) {
			s.skippedForeign++
			continue
		}
		st, err := restoreState(rec)
		if err != nil {
			s.logger.Warn("server: skipping session record", "session", rec.ID, "err", err)
			continue
		}
		s.store.adopt(st)
		s.restored++
	}
	if s.restored > 0 {
		s.logger.Info("server: restored sessions from backend", "count", s.restored, "backend", backend.Name())
	}
	if s.skippedForeign > 0 {
		s.logger.Info("server: left session records owned by other replicas in the backend", "count", s.skippedForeign)
	}
}

// restoreState rebuilds a live sessionState from its persisted record.
// Restore is lazy: an intent record's result is not derived here but on the
// session's first result access (Server.resolveResult). A legacy record
// that embeds its result restores with it, eagerly.
func restoreState(rec *SessionRecord) (*sessionState, error) {
	if rec.ID == "" || rec.Session == nil {
		return nil, errNoSessionSnapshot
	}
	planner, err := plannerFromDoc(rec.Config)
	if err != nil {
		return nil, fmt.Errorf("rebuilding planner: %w", err)
	}
	sess, err := core.RestoreSession(planner, rec.Session)
	if err != nil {
		return nil, err
	}
	st := &sessionState{
		id:      rec.ID,
		name:    rec.Name,
		created: rec.Created,
		sess:    sess,
		cfgDoc:  rec.Config,
		regKey:  registryKeyFromDoc(rec.Config),
		plans:   rec.Plans,
	}
	st.touch(rec.LastUsed)
	if rec.Plan != nil && sess.LastResult() == nil {
		st.plan, st.pending = rec.Plan, true
	}
	return st, nil
}

var errNoSessionSnapshot = errors.New("server: record carries no session snapshot")

// ServeHTTP implements http.Handler. Every request first passes the
// observability middleware: a request ID is adopted from X-Poiesis-Request-ID
// (or minted), set back into the request headers — cluster forwards clone
// them, so the ID rides to the owning replica — attached to the context for
// request-scoped logging, and echoed on the response; route metrics and the
// access log are recorded when the handler returns. The middleware also
// roots the request's trace: an inbound traceparent (a cluster forward, or
// an instrumented client) is continued, anything else starts a fresh trace
// subject to head sampling, and the trace ID is echoed in
// X-Poiesis-Trace-ID so a slow response links straight to /v1/traces/{id}.
// In cluster mode, requests for sessions another replica owns are
// transparently proxied there before routing; everything else — and every
// request that already arrived forwarded — is served locally.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rid := r.Header.Get(obs.RequestIDHeader)
	if !obs.ValidRequestID(rid) {
		rid = obs.NewRequestID()
		r.Header.Set(obs.RequestIDHeader, rid)
	}
	w.Header().Set(obs.RequestIDHeader, rid)
	ctx := obs.ContextWithRequestID(r.Context(), rid)
	ctx, span := s.tracer.StartRequest(ctx, r.Header.Get(obs.TraceParentHeader), "http")
	defer span.End()
	if span != nil {
		// Restamp the header so a forward (which clones request headers)
		// parents the owner's fragment under this replica's root span.
		r.Header.Set(obs.TraceParentHeader, span.TraceParent())
		w.Header().Set(obs.TraceIDHeader, span.TraceIDString())
	}
	r = r.WithContext(ctx)

	ww, sw := wrapWriter(w)
	route := "forward"
	if !s.interceptForward(ww, r) {
		if _, pattern := s.mux.Handler(r); pattern != "" {
			route = pattern
		} else {
			route = "unmatched"
		}
		s.mux.ServeHTTP(ww, r)
	}
	status := sw.status
	if status == 0 {
		status = http.StatusOK
	}
	elapsed := time.Since(start)
	s.metrics.httpRequests.With(route, r.Method, codeClass(status)).Inc()
	if span != nil {
		// Route patterns already carry the method ("POST /v1/..."); the
		// fallback routes ("forward", "unmatched") get it from the attr.
		span.SetName("http " + route)
		span.SetAttr("method", r.Method)
		span.SetAttr("route", route)
		span.SetAttr("status", codeClass(status))
		span.SetAttr("rid", rid)
		if status >= 500 {
			span.FailMsg("http " + codeClass(status))
		}
		s.metrics.httpLatency.With(route).ObserveEx(elapsed, span.TraceIDString())
	} else {
		s.metrics.httpLatency.With(route).Observe(elapsed)
	}
	if s.cfg.AccessLogf != nil {
		tid := ""
		if span != nil {
			// The sampled request's line links straight to /v1/traces/{id}.
			tid = " trace_id=" + span.TraceIDString()
		}
		s.cfg.AccessLogf("access rid=%s%s method=%s path=%s route=%q status=%d dur=%s bytes=%d remote=%s",
			rid, tid, r.Method, r.URL.Path, route, status, elapsed.Round(time.Microsecond), sw.bytes, r.RemoteAddr)
	}
}

// Close retires the server's background machinery: the session store's
// eviction worker is stopped after draining its queued backend deletes.
// Call it after the HTTP listener has shut down — requests arriving during
// Close may race the worker teardown. In-memory state is untouched.
func (s *Server) Close() error {
	s.store.close()
	return nil
}

// Sessions reports the number of live sessions (after TTL sweep).
func (s *Server) Sessions() int { return s.store.len() }

// RestoredSessions reports how many sessions were recovered from the backend
// at startup.
func (s *Server) RestoredSessions() int { return s.restored }
