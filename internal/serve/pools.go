package serve

import (
	"errors"
	"sync"

	"roadrunner/internal/trace"
)

// checkout resolves a warm evaluator for key: look up (or build) the
// pool, then Get an evaluator from it. The pool cache hands out raw
// pool pointers without refcounting, so a bounded-cache eviction can
// Close a pool between the lookup and the Get; that surfaces as
// trace.ErrPoolClosed and is retried against a freshly built pool
// rather than failing the job — the request was well-formed, and the
// race is the server's own. The attempt bound only guards against a
// pathological eviction storm; one retry suffices in practice.
func (s *Server) checkout(key string, build func() (*trace.EvaluatorPool, error)) (*trace.Evaluator, *trace.EvaluatorPool, error) {
	for attempt := 0; ; attempt++ {
		pool, err := s.pools.get(key, build)
		if err != nil {
			return nil, nil, err
		}
		ev, err := pool.Get()
		if err == nil {
			return ev, pool, nil
		}
		if !errors.Is(err, trace.ErrPoolClosed) || attempt >= 8 {
			return nil, nil, err
		}
	}
}

// boundedCache is the server's get-or-build cache of expensive values
// keyed by content: the warm trace.EvaluatorPools, one per
// (trace digest, replay config) pair, and the decoded traces, one per
// trace digest. Bounded: beyond max entries the oldest is dropped and
// handed to release (when non-nil) — serving is an accelerator over a
// pure function, so eviction can change wall clock but never results.
type boundedCache[V any] struct {
	release func(V) // closes an evicted or losing value; nil for none

	mu           sync.Mutex
	max          int
	vals         map[string]V
	order        []string
	closed       bool
	hits, misses int64
}

func newBoundedCache[V any](max int, release func(V)) *boundedCache[V] {
	return &boundedCache[V]{max: max, release: release, vals: make(map[string]V)}
}

// newPoolCache keeps the warm evaluator pools, so every replay job for
// a trace the service has already seen checks out a warm evaluator
// instead of rebuilding an engine.
func newPoolCache(max int) *boundedCache[*trace.EvaluatorPool] {
	return newBoundedCache(max, (*trace.EvaluatorPool).Close)
}

// newTraceStore keeps the decoded traces by the sha256 of their text,
// so every submission of a trace the service has already decoded skips
// the decode and its validation. A decoded trace is read-only, so one
// value is shared by every job that names the digest.
func newTraceStore(max int) *boundedCache[*trace.Trace] {
	return newBoundedCache[*trace.Trace](max, nil)
}

// get returns the value for key, building it with build on first use
// and evicting the oldest value beyond the bound. Every call that runs
// build counts a miss, whether or not build succeeds; a failed build is
// never stored. Concurrent callers for one key may race to build; the
// loser's value is released and the winner's kept, so at most one value
// per key is ever retained.
func (c *boundedCache[V]) get(key string, build func() (V, error)) (V, error) {
	var zero V
	c.mu.Lock()
	if v, ok := c.vals[key]; ok && !c.closed {
		c.hits++
		c.mu.Unlock()
		return v, nil
	}
	c.misses++
	c.mu.Unlock()

	// Build outside the lock: decoding a trace or building a pool takes
	// milliseconds the other shards shouldn't wait on.
	v, err := build()
	if err != nil {
		return zero, err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.drop(v)
		return zero, errClosed
	}
	if existing, ok := c.vals[key]; ok {
		c.mu.Unlock()
		c.drop(v)
		return existing, nil
	}
	var evict V
	evicted := false
	if len(c.vals) >= c.max && len(c.order) > 0 {
		oldest := c.order[0]
		c.order = append([]string(nil), c.order[1:]...)
		evict, evicted = c.vals[oldest], true
		delete(c.vals, oldest)
	}
	c.vals[key] = v
	c.order = append(c.order, key)
	c.mu.Unlock()
	if evicted {
		// An evicted pool's checked-out evaluators drain back through
		// Put, which closes them once the pool is closed.
		c.drop(evict)
	}
	return v, nil
}

// drop releases a value the cache no longer holds.
func (c *boundedCache[V]) drop(v V) {
	if c.release != nil {
		c.release(v)
	}
}

// stats reports how many values are warm and the lifetime hit and miss
// counts.
func (c *boundedCache[V]) stats() (size int, hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.vals), c.hits, c.misses
}

// Close releases every value; later gets build but never store.
func (c *boundedCache[V]) Close() {
	c.mu.Lock()
	vals := c.vals
	c.vals = make(map[string]V)
	c.order = nil
	c.closed = true
	c.mu.Unlock()
	for _, v := range vals {
		c.drop(v)
	}
}
