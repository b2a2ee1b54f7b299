package server

import (
	"context"
	"errors"

	"poiesis/internal/cluster"
	"poiesis/internal/core"
	"poiesis/internal/etl"
	"poiesis/internal/obs"
	"poiesis/internal/sim"
)

// Results live in the plan cache, not in session records. A plan request
// and the first access to a restored session both obtain a result through
// the same tiers — the local plan cache, the key owner's cache on a cluster
// replica, then a deterministic plan — which is what makes storing only the
// plan's key safe.

// resultSource names the tier that answered a result lookup.
type resultSource int

const (
	sourcePlan resultSource = iota
	sourceCache
	sourcePeer
	numResultSources
)

func (src resultSource) String() string {
	switch src {
	case sourceCache:
		return "cache"
	case sourcePeer:
		return "peer"
	default:
		return "plan"
	}
}

// planCacheKey returns the plan-cache key of planning g under opts. The
// registry suffix partitions the cache by pattern registry shape: PlanKey
// canonicalizes Options only, so custom-pattern declarations must
// contribute to the key. ok is false when the request must not be cached.
func planCacheKey(g *etl.Graph, bind sim.Binding, opts core.Options, regKey string) (key string, ok bool) {
	key, ok = core.PlanKey(g, bind, opts)
	return key + "|" + regKey, ok
}

// planResult returns the result for key from the first tier that has it.
// plan computes it when no cache does; a computed run is counted, cached
// and, when another replica owns the key, written through to that owner —
// so cluster-wide each fingerprint is evaluated once and then served from
// caches. Uncacheable requests always plan.
func (s *Server) planResult(ctx context.Context, key string, cacheable bool, plan func() (*core.Result, error)) (*core.Result, resultSource, error) {
	run := func() (*core.Result, error) {
		res, err := plan()
		if err != nil {
			return nil, err
		}
		s.plansComputed.Add(1)
		s.evaluations.Add(int64(res.Stats.Evaluated))
		return res, nil
	}
	if !cacheable {
		res, err := run()
		return res, sourcePlan, err
	}
	compute := run
	var fetchedFromPeer bool
	if s.cluster != nil {
		if owner := s.cluster.Owner(cluster.CacheKey(key)); owner != s.cluster.Self() {
			compute = func() (*core.Result, error) {
				if res, ok := s.fetchPeerResult(ctx, owner, key); ok {
					fetchedFromPeer = true
					return res, nil
				}
				res, err := run()
				if err == nil {
					s.pushPeerResult(ctx, owner, key, res)
				}
				return res, err
			}
		}
	}
	res, hit, err := s.cache.do(ctx, key, compute)
	switch {
	case err != nil:
		return nil, sourcePlan, err
	case fetchedFromPeer:
		return res, sourcePeer, nil
	case hit:
		return res, sourceCache, nil
	}
	return res, sourcePlan, nil
}

// resolveResult returns the session's live planning result, nil when it has
// none. A session restored with a pending plan intent derives its result
// here, on first access, exactly once: concurrent callers wait for the one
// derivation in flight and share its outcome. A failed or cancelled
// derivation leaves the session pending, and the next caller retries.
func (s *Server) resolveResult(ctx context.Context, st *sessionState) (*core.Result, error) {
	for {
		st.mu.Lock()
		if !st.pending {
			st.mu.Unlock()
			return st.sess.LastResult(), nil
		}
		if wait := st.deriving; wait != nil {
			st.mu.Unlock()
			select {
			case <-wait:
				continue
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		done := make(chan struct{})
		st.deriving = done
		intent := st.plan
		st.mu.Unlock()

		res, err := s.derive(ctx, st, intent)

		st.mu.Lock()
		st.deriving = nil
		if st.pending && st.plan == intent {
			switch {
			case errors.Is(err, errIntentMismatch):
				st.plan, st.pending = nil, false
			case err == nil:
				err = st.sess.AdoptResult(res)
				st.pending = err != nil
			}
		} else {
			// A plan that finished meanwhile superseded the intent: its
			// result stands, and the derivation's outcome is moot.
			err = nil
		}
		st.mu.Unlock()
		close(done)
		if err != nil && !errors.Is(err, errIntentMismatch) {
			return nil, err
		}
	}
}

// errIntentMismatch reports a plan intent that no longer names what the
// restored session would plan: the key recomputed from its flow, binding and
// options differs from the stored one (the record came from a build that
// keys plans differently, or its per-request config no longer parses).
var errIntentMismatch = errors.New("server: plan intent does not match the restored session")

// derive re-derives the result a plan intent names. The key is recomputed
// from the restored state and checked against the stored one before any
// tier is asked, so a session never adopts a result it would not plan.
func (s *Server) derive(ctx context.Context, st *sessionState, intent *PlanIntent) (*core.Result, error) {
	ctx, span := obs.StartSpan(ctx, "session.rederive")
	defer span.End()
	planner, regKey := st.sess.Planner(), st.regKey
	if intent.Config != nil {
		p, err := plannerFromDoc(intent.Config)
		if err != nil {
			withCtx(s.logger, ctx).Warn("server: dropping plan intent whose config no longer loads",
				"session", st.id, "err", err)
			return nil, errIntentMismatch
		}
		planner, regKey = p, registryKeyFromDoc(intent.Config)
	}
	cur, bind := st.sess.Current(), st.sess.Binding()
	key, cacheable := planCacheKey(cur, bind, planner.Options(), regKey)
	if key != intent.Key {
		withCtx(s.logger, ctx).Warn("server: dropping plan intent whose key does not match the restored session",
			"session", st.id)
		return nil, errIntentMismatch
	}
	res, src, err := s.planResult(ctx, key, cacheable, func() (*core.Result, error) {
		return planner.PlanContext(ctx, cur, bind)
	})
	if err != nil {
		span.Fail(err)
		return nil, err
	}
	span.SetAttr("source", src.String())
	s.metrics.rederive[src].Inc()
	return res, nil
}
