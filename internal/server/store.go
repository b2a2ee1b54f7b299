package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"poiesis/internal/config"
	"poiesis/internal/core"
	"poiesis/internal/obs"
)

// sessionState is one live analyst session: the underlying core.Session plus
// the service-level metadata (identity, defaults, liveness).
type sessionState struct {
	id      string
	name    string
	created time.Time

	sess *core.Session
	// cfgDoc is the creation config document; it is persisted with the
	// session record so a restore can rebuild the planner (and regKey).
	cfgDoc *config.Document
	// regKey canonicalizes the custom patterns of the session's creation
	// config: core.PlanKey sees only Options, not the pattern registry, so
	// plans made with custom patterns must be cache-partitioned by this
	// suffix or sessions with different registries would share results.
	regKey string

	// opMu serializes state-changing HTTP operations (plan, select) on this
	// session at the handler layer: plan holds it for the whole run, and a
	// concurrent plan/select fails fast with 409 instead of queueing.
	opMu sync.Mutex

	// lastUsedNanos is the liveness timestamp as Unix nanoseconds. It is
	// atomic, not mutex-guarded, so the TTL sweep can read the whole live
	// map without taking a per-session lock per entry — at 10k+ sessions
	// those acquisitions dominated every sweep.
	lastUsedNanos atomic.Int64

	// mu guards the mutable metadata below. Lock order is mu → the
	// core.Session's own lock: results are installed under mu so the plan
	// intent and the live result change together.
	mu    sync.Mutex
	plans int
	// plan is the intent of the session's last planning result, persisted
	// in place of the result; nil before the first plan and after a select.
	plan *PlanIntent
	// pending marks a restored session whose plan intent has not been
	// re-derived into a live result yet (see Server.resolveResult);
	// deriving is non-nil while the one derivation per session runs, and
	// is closed when it ends.
	pending  bool
	deriving chan struct{}

	// traces is a ring of the most recent plan runs served for this session
	// (newest last), the /v1/sessions/{id}/trace timeline. Runtime-only: it
	// is deliberately not persisted — a restored session starts with an
	// empty timeline.
	traceMu sync.Mutex
	traces  []planTrace
}

// maxPlanTraces bounds the per-session trace ring.
const maxPlanTraces = 16

// planTrace records one plan request served for the session: identity for
// cross-referencing logs, the outcome, and — for runs computed locally —
// the planner stage spans.
type planTrace struct {
	RequestID string
	Start     time.Time
	Duration  time.Duration
	// Cached marks responses served from the cache tier (local hit or peer
	// fetch); their Stages describe the original computing run, carried on
	// the cached result, or are absent for peer-shipped results.
	Cached    bool
	Err       string
	Evaluated int
	Skyline   int
	Stages    []core.StageTiming
}

// recordTrace appends one trace, evicting the oldest past maxPlanTraces.
func (st *sessionState) recordTrace(t planTrace) {
	st.traceMu.Lock()
	defer st.traceMu.Unlock()
	if len(st.traces) >= maxPlanTraces {
		n := copy(st.traces, st.traces[1:])
		st.traces = st.traces[:n]
	}
	st.traces = append(st.traces, t)
}

// traceList snapshots the trace ring, newest last.
func (st *sessionState) traceList() []planTrace {
	st.traceMu.Lock()
	defer st.traceMu.Unlock()
	return append([]planTrace(nil), st.traces...)
}

func (st *sessionState) touch(now time.Time) {
	st.lastUsedNanos.Store(now.UnixNano())
}

func (st *sessionState) lastUsed() time.Time {
	return time.Unix(0, st.lastUsedNanos.Load())
}

func (st *sessionState) meta() (lastUsed time.Time, plans int) {
	st.mu.Lock()
	p := st.plans
	st.mu.Unlock()
	return st.lastUsed(), p
}

// hasResult reports whether the session has a result, live or pending
// re-derivation — without deriving it.
func (st *sessionState) hasResult() bool {
	st.mu.Lock()
	pending := st.pending
	st.mu.Unlock()
	return pending || st.sess.LastResult() != nil
}

// planDone installs a completed plan's result and intent and refreshes
// liveness: a long run must not leave lastUsed pointing at the request's
// start, or the session would look idle for the whole run's duration.
func (st *sessionState) planDone(now time.Time, res *core.Result, intent *PlanIntent) error {
	st.mu.Lock()
	err := st.sess.AdoptResult(res)
	if err == nil {
		st.plans++
		st.plan, st.pending = intent, false
	}
	st.mu.Unlock()
	if err == nil {
		st.touch(now)
	}
	return err
}

// selected clears the plan intent after a select integrated a skyline
// design, as core.Session.Select clears its last result.
func (st *sessionState) selected(now time.Time) {
	st.mu.Lock()
	st.plan, st.pending = nil, false
	st.mu.Unlock()
	st.touch(now)
}

// record builds the persistence record of the session's current state: its
// intent, never its result. Callers hold st.opMu (or own the state
// exclusively, as add does), so the underlying core.Session cannot be
// mid-mutation.
func (st *sessionState) record() (*SessionRecord, error) {
	snap, err := st.sess.Snapshot()
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	plans, plan := st.plans, st.plan
	st.mu.Unlock()
	return &SessionRecord{
		Version:  SessionRecordVersion,
		ID:       st.id,
		Name:     st.name,
		Created:  st.created,
		LastUsed: st.lastUsed(),
		Plans:    plans,
		Config:   st.cfgDoc,
		Session:  snap,
		Plan:     plan,
	}, nil
}

// errTooManySessions is returned when the store is at capacity and nothing
// is expired.
var errTooManySessions = errors.New("server: session limit reached")

// sessionStore is the concurrency-safe session registry with TTL eviction: a
// session idle (no HTTP operation) for longer than ttl is dropped by the
// next store access that observes it. Expiry stays exact — get never hands
// out a session past its TTL, and list/len never report one — but the cost
// is no longer O(live sessions) on every get: a lookup checks only the
// requested session's liveness inline, and the full reclaiming sweep of the
// map runs at most once per sweepEvery (list and len, which must enumerate
// the map anyway, sweep on every call). Everything is driven by the injected
// clock, so expiry is deterministic in tests.
//
// Live sessions are held in memory, so reads (get, list) never touch the
// persistence layer; every state change writes a fresh record through to the
// SessionBackend, and startup restores whatever records the backend kept.
//
// Backend record deletion for TTL-evicted sessions is handed to a bounded
// background worker instead of running on the request path: with the disk
// backend each delete is an fsync'd unlink, and a get that evicts thousands
// of expired sessions must not stall behind that I/O. Explicit DELETEs
// (remove) stay synchronous — the client was promised the record is gone.
type sessionStore struct {
	ttl     time.Duration
	max     int
	now     func() time.Time
	backend SessionBackend
	log     *slog.Logger
	// tracer roots detached traces for background work (the eviction
	// worker's backend deletes); nil when tracing is disabled.
	tracer *obs.Tracer

	// sweepEvery bounds how often the full map sweep runs on the get path;
	// derived from the TTL (ttl/16, clamped to [1s, 30s]). Tests override.
	sweepEvery time.Duration

	// persistErrs counts write-through failures: the store stays available
	// on a failed backend write (the in-memory state is still correct), but
	// the degradation is surfaced in /v1/stats.
	persistErrs atomic.Int64

	// Eviction worker state: evictCh feeds TTL-evicted session IDs to one
	// background goroutine that deletes their backend records. evictDepth
	// tracks the queue backlog and evictDropped the IDs discarded because
	// the queue was full (their stale records are reclaimed by the startup
	// sweep — they are past the TTL by definition); both are surfaced in
	// /v1/stats. evictsDone counts completed deletes, for tests and stats.
	evictCh      chan string
	evictDepth   atomic.Int64
	evictDropped atomic.Int64
	evictsDone   atomic.Int64
	workerDone   chan struct{}
	closeOnce    sync.Once

	mu        sync.Mutex
	lastSweep time.Time
	m         map[string]*sessionState
}

// evictQueueCap bounds the eviction worker's backlog.
const evictQueueCap = 1024

func newSessionStore(ttl time.Duration, max int, now func() time.Time, backend SessionBackend, log *slog.Logger, tracer *obs.Tracer) *sessionStore {
	if backend == nil {
		backend = NewMemoryBackend()
	}
	if log == nil {
		log = defaultLogger
	}
	sweepEvery := ttl / 16
	if sweepEvery < time.Second {
		sweepEvery = time.Second
	}
	if sweepEvery > 30*time.Second {
		sweepEvery = 30 * time.Second
	}
	s := &sessionStore{
		ttl: ttl, max: max, now: now, backend: backend, log: log, tracer: tracer,
		sweepEvery: sweepEvery,
		evictCh:    make(chan string, evictQueueCap),
		workerDone: make(chan struct{}),
		m:          map[string]*sessionState{},
	}
	go s.evictWorker()
	return s
}

// evictWorker drains TTL-evicted session IDs and deletes their backend
// records off the request path. One worker keeps backend deletes serialized,
// mirroring the old synchronous order. Each delete runs under a detached
// trace (there is no originating request to parent it on), so slow
// eviction I/O shows up in /v1/traces like any other backend work.
func (s *sessionStore) evictWorker() {
	defer close(s.workerDone)
	for id := range s.evictCh {
		s.evictOne(id)
		s.evictDepth.Add(-1)
		s.evictsDone.Add(1)
	}
}

// evictOne deletes one evicted session's backend record under its own
// detached trace.
func (s *sessionStore) evictOne(id string) {
	// The eviction worker legitimately outlives every request: its deletes
	// were queued by requests that have long since returned.
	//lint:ignore ctxpropagate background eviction worker, no request to inherit from
	ctx, span := s.tracer.StartDetached(context.Background(), "evict.session")
	defer span.End()
	span.SetAttr("session", id)
	start := time.Now()
	err := s.backend.Delete(id)
	if obs.Traced(ctx) {
		obs.RecordSpan(ctx, "backend.delete", start, time.Since(start),
			obs.String("backend", s.backend.Name()))
	}
	if err != nil {
		s.persistErrs.Add(1)
		span.Fail(err)
		s.log.Warn("server: evicting session from backend failed",
			"session", id, "backend", s.backend.Name(), "err", err)
	}
}

// close stops the eviction worker after draining the queued deletes. Safe to
// call more than once.
func (s *sessionStore) close() {
	s.closeOnce.Do(func() { close(s.evictCh) })
	<-s.workerDone
}

// sweepLocked drops sessions idle past the TTL from the live map and
// returns their IDs; callers hand the IDs to the eviction worker *after*
// releasing s.mu (queueEvictions), so the global lock is never held across
// backend I/O. The scan itself is one atomic liveness load per entry —
// per-session mutexes are never taken here. A session whose opMu is held is
// mid-operation (e.g. a plan running longer than the TTL) and is never
// evicted — deleting it would orphan the run's result and history. Lock
// order is store.mu → opMu (try-only); handlers never acquire store.mu while
// holding opMu, so this cannot deadlock.
func (s *sessionStore) sweepLocked(now time.Time) (evicted []string) {
	if s.ttl <= 0 {
		return nil
	}
	s.lastSweep = now
	for id, st := range s.m {
		if !s.expiredLocked(st, now) {
			continue
		}
		delete(s.m, id)
		evicted = append(evicted, id)
	}
	return evicted
}

// maybeSweepLocked runs the full sweep at most once per sweepEvery — the get
// path's amortization. Expired sessions the interval leaves behind are still
// invisible: get checks its own target inline, and list/len always sweep.
func (s *sessionStore) maybeSweepLocked(now time.Time) []string {
	if s.ttl <= 0 || now.Sub(s.lastSweep) < s.sweepEvery {
		return nil
	}
	return s.sweepLocked(now)
}

// expiredLocked reports whether st is past the TTL and not mid-operation
// (an opMu holder keeps its session alive regardless of idle time).
func (s *sessionStore) expiredLocked(st *sessionState, now time.Time) bool {
	if s.ttl <= 0 || now.Sub(st.lastUsed()) <= s.ttl {
		return false
	}
	if !st.opMu.TryLock() {
		return false
	}
	st.opMu.Unlock()
	return true
}

// queueEvictions hands freshly evicted sessions' IDs to the background
// worker. Called without s.mu held. When the queue is full the ID is dropped
// and counted: the stale record is reclaimed by the next startup sweep (it
// is past the TTL by definition), and the same holds should the process
// crash before the worker gets to a queued delete.
func (s *sessionStore) queueEvictions(ids []string) {
	for _, id := range ids {
		// Increment before the send so the depth counter never dips negative:
		// it reads as queued + in-flight deletes.
		s.evictDepth.Add(1)
		select {
		case s.evictCh <- id:
		default:
			s.evictDepth.Add(-1)
			s.evictDropped.Add(1)
			s.log.Warn("server: eviction queue full; leaving session record for the startup sweep", "session", id)
		}
	}
}

// add registers a new session, writing its initial record through to the
// backend first: a session the backend refused to persist is never admitted,
// so the store can't hold sessions that would silently vanish on restart.
// The snapshot and backend write happen without holding the store lock — st
// is not shared yet — and only after a capacity pre-check, so a full server
// rejects creates cheaply instead of paying a snapshot plus durable write
// per 503. The insert re-checks capacity authoritatively; in the rare race
// where the store filled in between, the just-written record is rolled back.
func (s *sessionStore) add(ctx context.Context, st *sessionState) error {
	now := s.now()
	if s.atCapacity(now) {
		return errTooManySessions
	}
	st.created = now
	st.touch(now)
	rec, err := st.record()
	if err == nil {
		err = s.backendPut(ctx, rec)
	}
	if err != nil {
		s.persistErrs.Add(1)
		return fmt.Errorf("persisting session: %w", err)
	}

	s.mu.Lock()
	full := s.max > 0 && len(s.m) >= s.max
	if !full {
		s.m[st.id] = st
	}
	s.mu.Unlock()
	if full {
		if err := s.backend.Delete(st.id); err != nil {
			s.persistErrs.Add(1)
			s.log.Warn("server: rolling back record of rejected session failed", "session", st.id, "err", err)
		}
		return errTooManySessions
	}
	return nil
}

// backendPut writes one record, recording a backend.put span on the
// request's trace (attribute construction is skipped entirely untraced).
func (s *sessionStore) backendPut(ctx context.Context, rec *SessionRecord) error {
	start := time.Now()
	err := s.backend.Put(rec)
	if obs.Traced(ctx) {
		obs.RecordSpan(ctx, "backend.put", start, time.Since(start),
			obs.String("backend", s.backend.Name()), obs.String("session", rec.ID))
	}
	return err
}

// atCapacity sweeps and reports whether the store is full. The sweep here is
// always a full one: a create must reclaim every expired slot before it is
// refused, whatever the amortization interval says.
func (s *sessionStore) atCapacity(now time.Time) bool {
	s.mu.Lock()
	evicted := s.sweepLocked(now)
	full := s.max > 0 && len(s.m) >= s.max
	s.mu.Unlock()
	s.queueEvictions(evicted)
	return full
}

// adopt inserts a session restored from a backend record without writing it
// back (the backend already holds exactly this state). created/lastUsed come
// from the record.
func (s *sessionStore) adopt(st *sessionState) {
	s.mu.Lock()
	s.m[st.id] = st
	s.mu.Unlock()
}

// get returns the session and refreshes its liveness; ok is false for
// unknown or expired IDs. The expiry check is inline and O(1): only the
// requested session's liveness is examined (and the session evicted right
// here if it is past the TTL), so a lookup no longer scans the whole live
// map — the full reclaiming sweep runs at most once per sweepEvery. The
// touch happens while the store lock is held: refreshing after releasing it
// would let a concurrent sweep observe the stale lastUsed and evict the
// session between the unlock and the touch, handing the caller a session
// that is no longer in the store.
func (s *sessionStore) get(id string) (*sessionState, bool) {
	now := s.now()
	s.mu.Lock()
	evicted := s.maybeSweepLocked(now)
	st, ok := s.m[id]
	if ok && s.expiredLocked(st, now) {
		delete(s.m, id)
		evicted = append(evicted, id)
		st, ok = nil, false
	}
	if ok {
		st.touch(now)
	}
	s.mu.Unlock()
	s.queueEvictions(evicted)
	return st, ok
}

func (s *sessionStore) remove(ctx context.Context, id string) bool {
	s.mu.Lock()
	_, ok := s.m[id]
	if ok {
		delete(s.m, id)
	}
	s.mu.Unlock()
	if !ok {
		return false
	}
	// Backend delete outside s.mu; the caller holds the session's opMu, so
	// no plan/select can re-persist the record concurrently.
	start := time.Now()
	err := s.backend.Delete(id)
	if obs.Traced(ctx) {
		obs.RecordSpan(ctx, "backend.delete", start, time.Since(start),
			obs.String("backend", s.backend.Name()), obs.String("session", id))
	}
	if err != nil {
		s.persistErrs.Add(1)
		s.log.Warn("server: deleting session from backend failed",
			"session", id, "backend", s.backend.Name(), "err", err)
	}
	return true
}

// persist writes the session's current state through to the backend after a
// state-changing operation (plan completion, select). Callers hold st.opMu,
// which excludes concurrent deletion and TTL eviction (both only act on
// sessions whose opMu they can acquire), so a persisted record can never
// resurrect a session that was just removed. Write-through failures degrade
// durability, not availability: the error is counted and logged, and the
// in-memory session keeps serving.
func (s *sessionStore) persist(ctx context.Context, st *sessionState) error {
	ctx, span := obs.StartSpan(ctx, "session.persist")
	defer span.End()
	rec, err := st.record()
	if err == nil {
		err = s.backendPut(ctx, rec)
	}
	if err != nil {
		span.Fail(err)
		s.persistErrs.Add(1)
		withCtx(s.log, ctx).Warn("server: persisting session to backend failed",
			"session", st.id, "backend", s.backend.Name(), "err", err)
	}
	return err
}

// list returns the live sessions sorted by creation time (stable ties by
// ID). Listing must visit every entry anyway, so it doubles as a full sweep
// — expired sessions are reclaimed, never returned.
func (s *sessionStore) list() []*sessionState {
	now := s.now()
	s.mu.Lock()
	evicted := s.sweepLocked(now)
	out := make([]*sessionState, 0, len(s.m))
	for _, st := range s.m {
		out = append(out, st)
	}
	s.mu.Unlock()
	s.queueEvictions(evicted)
	sort.Slice(out, func(i, j int) bool {
		if !out[i].created.Equal(out[j].created) {
			return out[i].created.Before(out[j].created)
		}
		return out[i].id < out[j].id
	})
	return out
}

// len reports the live session count; like list it sweeps fully, so the
// count never includes expired sessions.
func (s *sessionStore) len() int {
	now := s.now()
	s.mu.Lock()
	evicted := s.sweepLocked(now)
	n := len(s.m)
	s.mu.Unlock()
	s.queueEvictions(evicted)
	return n
}

// newSessionID returns a 128-bit random hex identifier.
func newSessionID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("server: reading random session id: %v", err))
	}
	return hex.EncodeToString(b[:])
}
