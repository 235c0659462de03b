package serve

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"sync"
	"testing"

	"roadrunner/internal/units"
)

// TestServeLoad is the load harness: thousands of concurrent replay,
// optimize and collective submissions — a mix of distinct payloads and
// duplicates — against one server. Every request must succeed, every
// result for a given payload must be byte-identical across its copies,
// identical submissions must coalesce onto one job, and warm evaluator
// reuse must carry most of the replay work.
func TestServeLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("load harness skipped in -short mode")
	}
	tr := ringTraceJSONL(t, 8, 128*units.KB)

	// 64 distinct replay payloads (explicit placements rotating the ranks
	// around one CU), 4 distinct optimize payloads, 2 collectives.
	type payload struct {
		path string
		body []byte
	}
	var distinct []payload
	for p := 0; p < 64; p++ {
		var places []string
		for r := 0; r < 8; r++ {
			slot := (r + p) % 64
			places = append(places, fmt.Sprintf(`{"cu":0,"node":%d,"core":%d}`, slot/4, slot%4))
		}
		distinct = append(distinct, payload{"/v1/replay", []byte(`{"trace":` + jsonString(tr) +
			`,"placement":{"kind":"explicit","places":[` + strings.Join(places, ",") + `]}}`)})
	}
	for p := 0; p < 4; p++ {
		distinct = append(distinct, payload{"/v1/optimize", []byte(fmt.Sprintf(
			`{"trace":%s,"seed":%d,"greedy_rounds":1,"greedy_batch":2,"anneal_rounds":1,"anneal_batch":2}`,
			jsonString(tr), p))})
	}
	distinct = append(distinct,
		payload{"/v1/collective", []byte(`{"op":"allgather-ring","nodes":16,"size_bytes":65536}`)},
		payload{"/v1/collective", []byte(`{"op":"allreduce-ring","nodes":16,"size_bytes":65536}`)},
	)

	// ~2500 requests: every distinct payload submitted copies times, all
	// concurrently.
	const copies = 36
	total := len(distinct) * copies
	if total < 2000 {
		t.Fatalf("harness fires only %d requests, want thousands", total)
	}

	s := New(Options{Workers: 8})
	defer s.Close()
	digests := make([][]string, len(distinct))
	var wg sync.WaitGroup
	for i := range distinct {
		digests[i] = make([]string, copies)
		for c := 0; c < copies; c++ {
			wg.Add(1)
			go func(i, c int) {
				defer wg.Done()
				data := submitWait(t, s, distinct[i].path, distinct[i].body)
				digests[i][c] = fmt.Sprintf("%x", sha256.Sum256(data))
			}(i, c)
		}
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for i, ds := range digests {
		for c, d := range ds {
			if d != ds[0] {
				t.Errorf("payload %d copy %d: result digest %s != %s (results must be byte-identical per payload)",
					i, c, d[:12], ds[0][:12])
			}
		}
	}

	// Identical submissions coalesced: one job per distinct payload.
	s.mu.Lock()
	jobs := len(s.jobs)
	s.mu.Unlock()
	if jobs != len(distinct) {
		t.Errorf("%d jobs registered for %d distinct payloads under %d submissions", jobs, len(distinct), total)
	}

	// All 64 replay payloads share one trace and config, hence one warm
	// pool; the optimize jobs add their own. The pool bound holds and
	// evaluator reuse dominates builds.
	if got, _, _ := s.pools.stats(); got > s.opts.PoolTraces {
		t.Errorf("%d warm pools exceeds the PoolTraces bound %d", got, s.opts.PoolTraces)
	}
	var built, reused int64
	s.pools.mu.Lock()
	for _, p := range s.pools.vals {
		b, r := p.Stats()
		built += b
		reused += r
	}
	s.pools.mu.Unlock()
	if built+reused == 0 {
		t.Fatal("no evaluator checkouts recorded under load")
	}
	if reused < built {
		t.Errorf("evaluator reuse (%d) below builds (%d); warm pooling is not carrying the load", reused, built)
	}
}
