package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"sync"
	"testing"

	"roadrunner/internal/collectives"
	"roadrunner/internal/experiments"
	"roadrunner/internal/fabric"
	"roadrunner/internal/orchestrator"
	"roadrunner/internal/placement"
	"roadrunner/internal/report"
	"roadrunner/internal/transport"
	"roadrunner/internal/units"
)

// counted feeds one checker verdict through a recorder, as a pass does,
// and returns the run's fail_frac.
func counted(t *testing.T, err error) float64 {
	t.Helper()
	rec := newRecorder()
	rec.beginPass(0, nil)
	rec.op(0, nil)
	rec.op(0, err)
	return rec.failFrac()
}

func TestCheckersRejectPerturbedResults(t *testing.T) {
	header := []byte(`{"kind":"header"}` + "\n" + `{"kind":"replay","makespan_ps":1000}` + "\n")
	other := []byte(`{"kind":"header"}` + "\n" + `{"kind":"replay","makespan_ps":1001}` + "\n")
	key := [32]byte{1}

	cases := []struct {
		name string
		good func() error
		bad  func() error
	}{
		{
			name: "serve: a failed job",
			good: func() error {
				return newJobChecker().check(jobObs{kind: "replay", key: key, state: "done", result: header, direct: -1})
			},
			bad: func() error {
				return newJobChecker().check(jobObs{kind: "replay", key: key, state: "failed", errMsg: "boom", direct: -1})
			},
		},
		{
			name: "serve: a mismatched duplicate",
			good: func() error {
				c := newJobChecker()
				c.check(jobObs{kind: "replay", key: key, state: "done", result: header, direct: -1})
				return c.check(jobObs{kind: "replay", key: key, state: "done", result: header, direct: -1})
			},
			bad: func() error {
				c := newJobChecker()
				c.check(jobObs{kind: "replay", key: key, state: "done", result: header, direct: -1})
				return c.check(jobObs{kind: "replay", key: key, state: "done", result: other, direct: -1})
			},
		},
		{
			name: "serve: a replay the direct evaluator disagrees with",
			good: func() error {
				return newJobChecker().check(jobObs{kind: "replay", key: key, state: "done", result: header, direct: 1000})
			},
			bad: func() error {
				return newJobChecker().check(jobObs{kind: "replay", key: key, state: "done", result: header, direct: 999})
			},
		},
		{
			name: "placement: a winner off by 1 ps",
			good: func() error { res := searchResult(); return checkSearch(4, res, res.BestTime, []units.Time{900, 950}) },
			bad: func() error {
				res := searchResult()
				return checkSearch(4, res, res.BestTime+1, []units.Time{900, 950})
			},
		},
		{
			name: "placement: a winner worse than the best start",
			good: func() error { return checkSearch(4, searchResult(), 800, []units.Time{900, 950}) },
			bad: func() error {
				res := searchResult()
				res.Baselines[0].Time, res.BestTime = 700, 800
				return checkSearch(4, res, 800, []units.Time{700, 950})
			},
		},
		{
			name: "placement: five ranks on one node",
			good: func() error { return checkSearch(4, searchResult(), 800, []units.Time{900, 950}) },
			bad: func() error {
				res := searchResult()
				res.Best = append(res.Best, res.Best[0])
				return checkSearch(5, res, 800, []units.Time{900, 950})
			},
		},
		{
			name: "suite: an experiment with a failing check",
			good: func() error { _, _, err := checkExperiment(experiment(true)); return err },
			bad:  func() error { _, _, err := checkExperiment(experiment(false)); return err },
		},
		{
			name: "suite: an experiment that returned an error",
			good: func() error { _, _, err := checkExperiment(experiment(true)); return err },
			bad: func() error {
				r := experiment(true)
				r.Artifact, r.Err = nil, errors.New("panicked")
				_, _, err := checkExperiment(r)
				return err
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.good(); err != nil {
				t.Fatalf("unperturbed result rejected: %v", err)
			}
			if got := counted(t, c.good()); got != 0 {
				t.Fatalf("unperturbed fail_frac %v, want 0", got)
			}
			err := c.bad()
			if err == nil {
				t.Fatal("perturbed result accepted")
			}
			if got := counted(t, err); got != 0.5 {
				t.Fatalf("fail_frac %v after one failure in two operations, want 0.5", got)
			}
		})
	}
}

// TestSuiteHostSpeedCheckReported pins the one exemption: only
// surrogate-xval's host-time assertion is reported rather than counted,
// and it stays out of the artifact digest.
func TestSuiteHostSpeedCheckReported(t *testing.T) {
	xval := func(ok bool) *orchestrator.Result {
		r := experiment(true)
		r.ID = "surrogate-xval"
		r.Artifact.Checks.Items = append(r.Artifact.Checks.Items, report.Check{Name: hostSpeedCheck, Expected: 1, OK: ok})
		return r
	}
	pass, miss := xval(true), xval(false)
	sumPass, hostMiss, err := checkExperiment(pass)
	if err != nil || hostMiss {
		t.Fatalf("passing run: miss %v, err %v", hostMiss, err)
	}
	sumMiss, hostMiss, err := checkExperiment(miss)
	if err != nil || !hostMiss {
		t.Fatalf("missed host-time assertion: miss %v, err %v", hostMiss, err)
	}
	if sumPass != sumMiss {
		t.Fatal("the host-time assertion's outcome changed the artifact digest")
	}
	other := xval(false)
	other.ID = "fig1"
	if _, _, err := checkExperiment(other); err == nil {
		t.Fatal("the same check failing in another experiment was not counted")
	}
}

func TestSaturationCheckRejectsChangedOutput(t *testing.T) {
	inst, err := setupSaturation(env{seed: 1, workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := inst.(*saturation)
	res := &collectives.Result{Op: collectives.AlltoallPairwise, Time: 5000, MinTime: 4000, Messages: 12, WireBytes: 64}
	if _, err := s.check(0, satRun{err: errors.New("payload mismatch")}); err == nil {
		t.Fatal("a run whose collective failed its payload validation was accepted")
	}
	sum, err := s.check(0, satRun{res: res})
	if err != nil {
		t.Fatal(err)
	}
	s.first = make([]string, len(s.reqs))
	s.first[0] = sum
	if _, err := s.check(0, satRun{res: res}); err != nil {
		t.Fatalf("a repeated pass with equal output was rejected: %v", err)
	}
	changed := *res
	changed.Time++
	if _, err := s.check(0, satRun{res: &changed}); err == nil {
		t.Fatal("a pass whose simulated time moved by 1 ps was accepted")
	}
}

func TestSimDigestIgnoresLaterPasses(t *testing.T) {
	a, b := newRecorder(), newRecorder()
	for _, r := range []*recorder{a, b} {
		r.beginPass(0, nil)
		r.sim("run %d", 1)
	}
	b.beginPass(1, nil)
	b.sim("run %d", 2)
	if a.simDigest() != b.simDigest() {
		t.Fatal("the digest depends on how many passes ran")
	}
	c := newRecorder()
	c.beginPass(0, nil)
	c.sim("run %d", 3)
	if c.simDigest() == a.simDigest() {
		t.Fatal("different simulated outputs share a digest")
	}
}

// TestBenchmarkJSONMatchesTables pins the metric names and units the
// program prints to the BENCHMARK.json that declares them.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to this directory: %v", err)
	}
	type metric struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Errorf("workloads %v, program runs %v", names, want)
	}
	same := func(label string, got []metric, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: %d metrics declared, program prints %d", label, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: declared %s (%s), program prints %s (%s)", label, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

// searchResult is a 4-rank search whose winner (800 ps) beats both
// starts (900 and 950 ps) with at most four ranks per node.
func searchResult() *placement.Result {
	node := fabric.NodeID{CU: 0, Node: 3}
	best := make([]transport.Endpoint, 4)
	for i := range best {
		best[i] = transport.Endpoint{Node: node, Core: i}
	}
	return &placement.Result{
		Ranks:     4,
		Baselines: []placement.BaselinePoint{{Name: "block", Time: 900}, {Name: "strided", Time: 950}},
		Best:      best,
		BestTime:  800,
	}
}

func experiment(ok bool) *orchestrator.Result {
	art := &experiments.Artifact{ID: "fig1", Title: "t", PaperRef: "r"}
	art.Checks.Items = []report.Check{{Name: "peak", Expected: 1, Measured: 1, OK: true}, {Name: "ratio", Expected: 2, Measured: 3, OK: ok}}
	return &orchestrator.Result{ID: "fig1", Artifact: art}
}

// TestRecorderAndTracerConcurrent drives the state the workers and
// clients share — recorder, tracer, job checker — from several
// goroutines at once, for the race detector.
func TestRecorderAndTracerConcurrent(t *testing.T) {
	rec, tr, c := newRecorder(), newTracer(), newJobChecker()
	rec.beginPass(0, tr)
	result := []byte(`{"kind":"header"}` + "\n")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				op := tr.newOp()
				sp := tr.begin(op, 0, "op")
				err := c.check(jobObs{kind: "collective", key: [32]byte{byte(i)}, state: "done", result: result, direct: -1})
				rec.op(tr.end(sp), err)
				rec.layer("x", 1)
			}
		}()
	}
	wg.Wait()
	if rec.attempted != 400 || rec.failed != 0 || len(rec.samples["x"]) != 400 || len(tr.spans) != 400 {
		t.Fatalf("attempted %d failed %d samples %d spans %d", rec.attempted, rec.failed, len(rec.samples["x"]), len(tr.spans))
	}
}

// TestServePass runs one traced pass of the serve workload end to end:
// every job settles, every check passes and the per-layer samples land.
func TestServePass(t *testing.T) {
	if testing.Short() {
		t.Skip("captures two traces and serves 80 jobs")
	}
	inst, err := setupServe(env{seed: 1, workers: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	rec := newRecorder()
	rec.beginPass(0, newTracer())
	if err := inst.pass(rec); err != nil {
		t.Fatal(err)
	}
	if rec.attempted != serveBatch || rec.failed != 0 {
		t.Fatalf("attempted %d, failed %d: %v", rec.attempted, rec.failed, rec.reasons)
	}
	if len(rec.samples["serve.submit_p50_ms"]) != 1 || len(rec.samples["serve.warm_pools"]) != 1 {
		t.Fatalf("per-layer samples missing: %v", rec.samples)
	}
}

// TestServePayloadsNeverRecurAcrossPasses: the registry evicts earlier
// passes' jobs while a pass runs, so a payload resent from an earlier
// pass could coalesce with a job that is evicted before its result is
// fetched. Payloads may recur only within a pass (the repeats).
func TestServePayloadsNeverRecurAcrossPasses(t *testing.T) {
	if testing.Short() {
		t.Skip("captures two traces")
	}
	inst, err := setupServe(env{seed: 1, workers: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	b := inst.(*serveBench)
	firstPass := map[[32]byte]int{}
	for p := 0; p < 40; p++ {
		for _, j := range b.jobs(p) {
			sum := sha256.Sum256(j.body)
			if q, ok := firstPass[sum]; !ok {
				firstPass[sum] = p
			} else if q != p {
				t.Fatalf("pass %d resends a %s payload of pass %d", p, j.kind, q)
			}
		}
	}
}
