package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"roadrunner/internal/cml"
	"roadrunner/internal/scenario"
	"roadrunner/internal/sweep3d"
	"roadrunner/internal/trace"
	"roadrunner/internal/units"
)

// sweepTraces captures the two Sweep3D wavefront traces the service
// replays in practice — the 8x8 trace-replay capture and the 4x4
// facility capture — as JSONL text, once per test binary.
var sweepTraces = sync.OnceValues(func() ([2]string, error) {
	var out [2]string
	grids := []struct {
		cfg    sweep3d.Config
		px, py int
	}{
		{scenario.TraceReplayGrid, scenario.TraceReplayPx, scenario.TraceReplayPy},
		{scenario.FacilityTraceGrid, scenario.FacilityTracePx, scenario.FacilityTracePy},
	}
	for i, g := range grids {
		_, tr, err := sweep3d.CaptureDES(g.cfg, g.px, g.py, cml.CurrentSoftware())
		if err != nil {
			return out, err
		}
		var buf bytes.Buffer
		if err := trace.Encode(&buf, tr); err != nil {
			return out, err
		}
		out[i] = buf.String()
	}
	return out, nil
})

// sweepTraceJSONL returns the 8x8 (i == 0) or 4x4 (i == 1) capture.
func sweepTraceJSONL(t testing.TB, i int) string {
	t.Helper()
	traces, err := sweepTraces()
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	return traces[i]
}

// storeStats reads the trace-store counters off GET /v1/stats.
func storeStats(t testing.TB, s *Server) serveStats {
	t.Helper()
	var st serveStats
	rec := do(t, s, http.MethodGet, "/v1/stats", nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("stats: %v", err)
	}
	return st
}

// TestServeTraceStoreDeterministic pins the trace store's determinism
// contract (docs/determinism.md): a job's artifact is the same bytes
// whether its trace was decoded for it (a cold store), came out of the
// store (a warm one), or was decoded again after eviction (a store
// bounded to one trace while submissions alternate the 8x8 and 4x4
// captures, so every submission misses).
func TestServeTraceStoreDeterministic(t *testing.T) {
	traces := [2]string{sweepTraceJSONL(t, 0), sweepTraceJSONL(t, 1)}
	type sub struct{ path, body string }
	var subs []sub
	for _, pl := range []string{`{"kind":"block"}`, `{"kind":"strided","stride":7}`, `{"kind":"packed","per_node":2}`} {
		for _, tr := range traces {
			subs = append(subs, sub{"/v1/replay",
				fmt.Sprintf(`{"trace":%s,"placement":%s,"observe":"census"}`, jsonString(tr), pl)})
		}
	}
	subs = append(subs, sub{"/v1/optimize", `{"trace":` + jsonString(traces[0]) +
		`,"seed":3,"greedy_rounds":1,"greedy_batch":2,"anneal_rounds":1,"anneal_batch":2}`})

	cold := make([][]byte, len(subs))
	for i, sb := range subs {
		s := New(Options{Workers: 1})
		cold[i] = submitWait(t, s, sb.path, []byte(sb.body))
		if st := storeStats(t, s); st.TraceMiss != 1 || st.TraceHits != 0 || st.WarmTraces != 1 {
			t.Errorf("cold submission %d: trace store %d warm, %d hits, %d misses; want 1, 0, 1",
				i, st.WarmTraces, st.TraceHits, st.TraceMiss)
		}
		s.Close()
	}

	for _, tc := range []struct {
		name               string
		opts               Options
		warm               int
		wantHits, wantMiss int64
	}{
		{"warm", Options{Workers: 1}, 2, int64(len(subs) - 2), 2},
		{"evicted", Options{Workers: 1, PoolTraces: 1}, 1, 0, int64(len(subs))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(tc.opts)
			defer s.Close()
			for i, sb := range subs {
				if got := submitWait(t, s, sb.path, []byte(sb.body)); !bytes.Equal(got, cold[i]) {
					t.Errorf("submission %d: %s store result differs from the cold decode's (%d vs %d bytes)",
						i, tc.name, len(got), len(cold[i]))
				}
			}
			st := storeStats(t, s)
			if st.WarmTraces != tc.warm || st.TraceHits != tc.wantHits || st.TraceMiss != tc.wantMiss {
				t.Errorf("trace store %d warm, %d hits, %d misses; want %d, %d, %d",
					st.WarmTraces, st.TraceHits, st.TraceMiss, tc.warm, tc.wantHits, tc.wantMiss)
			}
		})
	}
}

// TestServeTraceStoreConcurrentJobs runs replay and optimize jobs at
// once on one shared decoded trace: under -race this pins that nothing
// the jobs reach writes to it, and every artifact matches the one a
// cold server computes for the same request.
func TestServeTraceStoreConcurrentJobs(t *testing.T) {
	text := sweepTraceJSONL(t, 1)
	var bodies []struct{ path, body string }
	for k := 0; k < 6; k++ {
		bodies = append(bodies, struct{ path, body string }{"/v1/replay",
			fmt.Sprintf(`{"trace":%s,"placement":{"kind":"strided","stride":%d},"observe":"all"}`, jsonString(text), k+2)})
	}
	for seed := 0; seed < 3; seed++ {
		bodies = append(bodies, struct{ path, body string }{"/v1/optimize",
			fmt.Sprintf(`{"trace":%s,"seed":%d,"greedy_rounds":1,"greedy_batch":2,"anneal_rounds":1,"anneal_batch":2}`,
				jsonString(text), seed)})
	}
	want := make([][]byte, len(bodies))
	for i, b := range bodies {
		s := New(Options{Workers: 1})
		want[i] = submitWait(t, s, b.path, []byte(b.body))
		s.Close()
	}

	s := New(Options{Workers: 4})
	defer s.Close()
	// The first submission decodes; every concurrent one shares its trace.
	if got := submitWait(t, s, bodies[0].path, []byte(bodies[0].body)); !bytes.Equal(got, want[0]) {
		t.Fatal("first submission differs from the cold server's")
	}
	var wg sync.WaitGroup
	got := make([][]byte, len(bodies))
	for i := 1; i < len(bodies); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = submitWait(t, s, bodies[i].path, []byte(bodies[i].body))
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(bodies); i++ {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("%s %d: concurrent result on the shared trace differs from the cold server's", bodies[i].path, i)
		}
	}
	if st := storeStats(t, s); st.TraceMiss != 1 || st.TraceHits != int64(len(bodies)-1) {
		t.Errorf("trace store %d hits, %d misses; want %d, 1", st.TraceHits, st.TraceMiss, len(bodies)-1)
	}
}

// TestServeSettledJobDropsWork pins that a finished or failed job
// retains only its outcome: the worker drops the work function, and
// with it the decoded request, when the job settles, and a parsed
// request never keeps the raw trace text.
func TestServeSettledJobDropsWork(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	tr := ringTraceJSONL(t, 4, 16*units.KB)
	body := []byte(`{"trace":` + jsonString(tr) + `}`)

	rj, aerr := s.parseReplay(body)
	if aerr != nil {
		t.Fatalf("parse replay: %s", aerr.Message)
	}
	oj, aerr := s.parseOptimize(body)
	if aerr != nil {
		t.Fatalf("parse optimize: %s", aerr.Message)
	}
	if rj.req.Trace != "" || oj.req.Trace != "" {
		t.Error("a parsed request still holds the raw trace text")
	}

	submitWait(t, s, "/v1/replay", body)
	var sub submitResponse
	if err := json.Unmarshal(do(t, s, http.MethodPost, "/v1/replay", body).Body.Bytes(), &sub); err != nil {
		t.Fatalf("resubmit response: %v", err)
	}
	done, ok := s.lookup(sub.JobID)
	if !ok {
		t.Fatal("finished replay job not registered")
	}
	failed := newJob("rp-fails", "replay", "k", "", func() ([]byte, error) {
		return nil, fmt.Errorf("engine error")
	})
	if _, aerr := s.register(failed); aerr != nil {
		t.Fatalf("register: %v", aerr)
	}
	s.queue <- failed
	deadline := time.Now().Add(10 * time.Second)
	for !failed.settled() {
		if time.Now().After(deadline) {
			t.Fatal("failing job never settled")
		}
		time.Sleep(time.Millisecond)
	}
	for _, job := range []*Job{done, failed} {
		job.mu.Lock()
		state, run := job.state, job.run
		job.mu.Unlock()
		if run != nil {
			t.Errorf("%s job %s still holds its work function", state, job.ID)
		}
	}
}
