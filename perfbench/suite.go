package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"roadrunner/internal/experiments"
	"roadrunner/internal/orchestrator"
	"roadrunner/internal/report"
	"roadrunner/internal/scenario"
)

// suiteSkip is left out of the suite workload: the saturation workload
// covers its DES, and its full-machine point alone outlasts a run.
const suiteSkip = "coll-saturation"

// suite runs orchestrator.Run over every registered experiment but
// suiteSkip, with no cache, as rrexp does.
type suite struct {
	workers int
	exps    []experiments.Experiment
	first   []string
}

func setupSuite(e env, tr *tracer) (instance, error) {
	sp := tr.begin(tr.newOp(), 0, "experiments.All")
	defer tr.end(sp)
	s := &suite{workers: e.workers}
	for _, x := range experiments.All() {
		if x.ID != suiteSkip {
			s.exps = append(s.exps, x)
		}
	}
	if len(s.exps) == 0 {
		return nil, fmt.Errorf("no experiments registered")
	}
	return s, nil
}

func (s *suite) close() {}

func (s *suite) pass(rec *recorder) error {
	rec.note("inputs do not depend on --seed: the suite is fixed, so sim_digest is the same for every seed")
	rec.note("%d experiments per pass (all but %s), %d orchestrator workers, no cache", len(s.exps), suiteSkip, s.workers)
	tr := rec.tr
	root := tr.begin(tr.newOp(), 0, "orchestrator.Run")
	// Every experiment is submitted when the pass starts; its latency is
	// the time until its result arrives. OnResult calls are serialized.
	done := make(map[string]time.Duration, len(s.exps))
	t0 := time.Now()
	opts := orchestrator.Options{
		Workers: s.workers,
		OnResult: func(r *orchestrator.Result) {
			now := time.Now()
			done[r.ID] = now.Sub(t0)
			tr.record(tr.newOp(), root, "experiment."+r.ID, now, r.Elapsed)
		},
	}
	results, err := orchestrator.Run(context.Background(), s.exps, opts)
	wall := time.Since(t0)
	tr.end(root)
	if err != nil {
		return err
	}

	sums := make([]string, len(results))
	for i, r := range results {
		sum, hostMiss, err := checkExperiment(r)
		if err == nil && s.first != nil && s.first[i] != sum {
			err = fmt.Errorf("%s: artifact differs from pass 0", r.ID)
		}
		if hostMiss {
			rec.note("pass %d: %s missed its host-time assertion %q (reported, not counted as wrong output)",
				rec.pass, r.ID, hostSpeedCheck)
		}
		sums[i] = sum
		rec.op(done[r.ID], err)
	}
	if rec.first() {
		s.first = sums
		for _, sum := range sums {
			rec.sim("%s", sum)
		}
	}
	if rec.traced() {
		var total time.Duration
		for _, r := range results {
			total += r.Elapsed
			ms := float64(r.Elapsed) / float64(time.Millisecond)
			for _, id := range heavyExperiments {
				if r.ID == id {
					rec.layer("orchestrator.experiment_ms."+id, ms)
				}
			}
			if r.ID == "facility-stream" {
				rec.layer("facility.stream_ms", ms)
			}
		}
		rec.layer("orchestrator.experiment_ms_sum", float64(total)/float64(time.Millisecond))
		rec.layer("orchestrator.pool_efficiency", total.Seconds()/(float64(s.workers)*wall.Seconds()))
	}
	return nil
}

// hostSpeedCheck is the one suite check on host time rather than on
// simulated output: surrogate-xval asserts that the surrogate prices at
// least SurrogateSpeedFloor times faster than the pooled DES, timed while
// the suite's other experiments share the cores. Under that load it
// misses in some passes. The benchmark reports each miss and leaves the
// check out of its output verdict and out of the artifact digest; every
// other check must pass.
var hostSpeedCheck = fmt.Sprintf("surrogate prices >= %.0fx faster than the pooled DES evaluates", scenario.SurrogateSpeedFloor)

// checkExperiment passes an experiment that produced an artifact whose
// paper-vs-measured checks all hold, and returns the artifact's digest
// and whether the host-time assertion missed.
func checkExperiment(r *orchestrator.Result) (sum string, hostMiss bool, err error) {
	if r.Err != nil {
		return "", false, fmt.Errorf("%s: %w", r.ID, r.Err)
	}
	if r.Artifact == nil {
		return "", false, fmt.Errorf("%s: no artifact", r.ID)
	}
	art := *r.Artifact
	art.Checks = report.Checks{}
	for _, c := range r.Artifact.Checks.Items {
		if r.ID == "surrogate-xval" && c.Name == hostSpeedCheck {
			hostMiss = !c.OK
			continue
		}
		if !c.OK {
			return "", false, fmt.Errorf("%s: check failed: %s", r.ID, c.String())
		}
		art.Checks.Items = append(art.Checks.Items, c)
	}
	digest := sha256.Sum256([]byte(art.String()))
	return r.ID + " " + hex.EncodeToString(digest[:16]), hostMiss, nil
}
