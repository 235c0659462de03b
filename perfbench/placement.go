package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"roadrunner/internal/cml"
	"roadrunner/internal/collectives"
	"roadrunner/internal/fabric"
	"roadrunner/internal/ib"
	"roadrunner/internal/placement"
	"roadrunner/internal/scenario"
	"roadrunner/internal/surrogate"
	"roadrunner/internal/sweep3d"
	"roadrunner/internal/trace"
	"roadrunner/internal/transport"
	"roadrunner/internal/units"
)

// placementSearches is how many seeded searches one pass runs; every
// pass runs the same ones.
const placementSearches = 3

// placementBench runs the rrtrace optimize -surrogate path on the 8x8
// Sweep3D trace: congested, communication-only, from the block, strided
// and packed starts, with the rrtrace search shape.
type placementBench struct {
	workers int
	tr      *trace.Trace
	replay  trace.ReplayConfig
	starts  []placement.Start
	seeds   []int64
	eval    *trace.Evaluator // single-threaded; prices the starts
	first   []string
}

func setupPlacement(e env, tr *tracer) (instance, error) {
	op := tr.newOp()
	sp := tr.begin(op, 0, "sweep3d.CaptureDES")
	_, t, err := sweep3d.CaptureDES(scenario.TraceReplayGrid, scenario.TraceReplayPx, scenario.TraceReplayPy, cml.CurrentSoftware())
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	fab := fabric.New()
	b := &placementBench{
		workers: e.workers,
		tr:      t,
		replay: trace.ReplayConfig{
			Fabric:      fab,
			Profile:     ib.OpenMPI(),
			Policy:      transport.Congested(),
			SkipCompute: true,
		},
		starts: []placement.Start{
			{Name: "block", Places: endpoints(collectives.BlockPlacement(fab, t.Meta.Ranks, 1))},
			{Name: "strided", Places: endpoints(collectives.StridedPlacement(fab, t.Meta.Ranks, 180, 1))},
			{Name: "packed", Places: endpoints(collectives.PackedPlacement(fab, t.Meta.Ranks, 4))},
		},
	}
	for k := 0; k < placementSearches; k++ {
		b.seeds = append(b.seeds, derive(e.seed, k))
	}
	sp = tr.begin(op, 0, "trace.NewEvaluator")
	b.eval, err = trace.NewEvaluator(t, b.replay)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return b, nil
}

func (b *placementBench) close() { b.eval.Close() }

// searchOut is one search operation's outputs and layer timings.
type searchOut struct {
	res       *placement.Result
	verify    *trace.ReplayResult
	startTime []units.Time
	search    time.Duration // spans: zero in untraced passes
	replay    time.Duration
	evaluate  time.Duration
	newModel  time.Duration
}

func (b *placementBench) pass(rec *recorder) error {
	rec.note("%d two-tier searches per pass (seeds %v), %d ranks, congested, communication-only, %d workers",
		len(b.seeds), b.seeds, b.tr.Meta.Ranks, b.workers)
	tr := rec.tr
	var outs []searchOut
	var sums []string
	for k, seed := range b.seeds {
		t0 := time.Now()
		out, err := b.search(tr, seed)
		lat := time.Since(t0)
		var sum string
		if err == nil {
			sum, err = b.check(k, out)
		}
		rec.op(lat, err)
		outs = append(outs, out)
		sums = append(sums, sum)
	}
	if rec.first() {
		b.first = sums
		for _, s := range sums {
			rec.sim("%s", s)
		}
	}
	if rec.traced() {
		b.layers(rec, outs)
	}
	return nil
}

// search runs one seeded search, replays its winner on a fresh engine,
// prices every start on the single-threaded evaluator and builds a
// surrogate model, each call in its own span.
func (b *placementBench) search(tr *tracer, seed int64) (searchOut, error) {
	var out searchOut
	op := tr.newOp()
	root := tr.begin(op, 0, "placement-search.op")
	defer tr.end(root)

	sp := tr.begin(op, root, "placement.Optimize")
	res, err := placement.Optimize(placement.Config{
		Trace:        b.tr,
		Replay:       b.replay,
		Starts:       b.starts,
		Seed:         seed,
		Workers:      b.workers,
		GreedyRounds: 4,
		GreedyBatch:  16,
		AnnealRounds: 4,
		AnnealBatch:  16,
		Surrogate:    true,
		ScreenFactor: 4,
		Anchors:      12,
	})
	out.search = tr.end(sp)
	if err != nil {
		return out, fmt.Errorf("search seed %d: %w", seed, err)
	}
	out.res = res

	cfg := b.replay
	cfg.Places = res.Best
	cfg.Observe = trace.ObserveCensus
	sp = tr.begin(op, root, "trace.Replay")
	out.verify, err = trace.Replay(b.tr, cfg)
	out.replay = tr.end(sp)
	if err != nil {
		return out, fmt.Errorf("verify seed %d: %w", seed, err)
	}

	for _, st := range b.starts {
		sp = tr.begin(op, root, "trace.Evaluator.Evaluate")
		r, err := b.eval.Evaluate(st.Places)
		out.evaluate += tr.end(sp)
		if err != nil {
			return out, fmt.Errorf("evaluate start %s: %w", st.Name, err)
		}
		out.startTime = append(out.startTime, r.Time)
	}

	sp = tr.begin(op, root, "surrogate.NewReplay")
	m, err := surrogate.NewReplay(b.tr, b.replay)
	out.newModel = tr.end(sp)
	if err != nil {
		return out, fmt.Errorf("surrogate: %w", err)
	}
	m.Close()
	return out, nil
}

// check validates one search against the single-threaded evaluator's
// start prices and the fresh replay of its winner, and returns its
// simulated summary.
func (b *placementBench) check(k int, out searchOut) (string, error) {
	if err := checkSearch(b.tr.Meta.Ranks, out.res, out.verify.Time, out.startTime); err != nil {
		return "", fmt.Errorf("search seed %d: %w", b.seeds[k], err)
	}
	res := out.res
	h := sha256.New()
	for _, e := range res.Best {
		fmt.Fprintf(h, "%d.%d.%d ", e.Node.CU, e.Node.Node, e.Core)
	}
	sum := fmt.Sprintf("seed=%d best=%d start=%s/%d evals=%d traj=%+v wire=%d msgs=%d mapping=%s",
		b.seeds[k], res.BestTime, res.Start, res.StartTime, res.Evaluations, res.Trajectory.WallFree(),
		out.verify.WireBytes, out.verify.Messages, hex.EncodeToString(h.Sum(nil))[:16])
	if c := out.verify.Congestion; c != nil {
		sum += fmt.Sprintf(" queued=%d wait=%d", c.Queued, c.TotalWait)
	}
	if b.first != nil && b.first[k] != sum {
		return sum, fmt.Errorf("search seed %d: simulated output differs from pass 0", b.seeds[k])
	}
	return sum, nil
}

// checkSearch is the placement winner's contract: a fresh replay
// reproduces BestTime exactly, the search's baselines are the starts'
// makespans, the winner is no worse than the best start, every rank is
// placed and no node holds more than four ranks.
func checkSearch(ranks int, res *placement.Result, verify units.Time, starts []units.Time) error {
	if res.BestTime != verify {
		return fmt.Errorf("winner %d ps does not reproduce on a fresh replay (%d ps)", res.BestTime, verify)
	}
	if len(res.Baselines) != len(starts) {
		return fmt.Errorf("%d baselines for %d starts", len(res.Baselines), len(starts))
	}
	best := starts[0]
	for i, t := range starts {
		if res.Baselines[i].Time != t {
			return fmt.Errorf("baseline %s %d ps, evaluator says %d ps", res.Baselines[i].Name, res.Baselines[i].Time, t)
		}
		best = min(best, t)
	}
	if res.BestTime > best {
		return fmt.Errorf("winner %d ps is worse than the best start %d ps", res.BestTime, best)
	}
	if len(res.Best) != ranks {
		return fmt.Errorf("winner places %d of %d ranks", len(res.Best), ranks)
	}
	perNode := map[fabric.NodeID]int{}
	for _, e := range res.Best {
		if perNode[e.Node]++; perNode[e.Node] > 4 {
			return fmt.Errorf("node %v holds more than 4 ranks", e.Node)
		}
	}
	return nil
}

// layers records the per-layer samples of one traced pass.
func (b *placementBench) layers(rec *recorder, outs []searchOut) {
	var search, replay, evaluate, newModel time.Duration
	var best float64
	var tj placement.Trajectory
	n := 0
	for _, o := range outs {
		if o.res == nil {
			continue
		}
		n++
		search += o.search
		replay += o.replay
		evaluate += o.evaluate
		newModel += o.newModel
		best += o.res.BestTime.Microseconds()
		t := o.res.Trajectory
		tj.DESEvals += t.DESEvals
		tj.SurrogateEvals += t.SurrogateEvals
		tj.DedupHits += t.DedupHits
		tj.DESWall += t.DESWall
		tj.SurrogateWall += t.SurrogateWall
	}
	if n == 0 {
		return
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	rec.layer("placement.search_ms", ms(search)/float64(n))
	rec.layer("placement.des_evals", float64(tj.DESEvals))
	rec.layer("placement.surrogate_evals", float64(tj.SurrogateEvals))
	rec.layer("placement.dedup_hits", float64(tj.DedupHits))
	rec.layer("placement.verify_ms", ms(replay)/float64(n))
	rec.layer("placement.best_makespan_us", best/float64(n))
	rec.layer("trace.evaluate_ms", ms(evaluate)/float64(n*len(b.starts)))
	rec.layer("surrogate.new_ms", ms(newModel)/float64(n))
	if tj.DESEvals > 0 {
		rec.layer("placement.des_eval_ms", ms(tj.DESWall)/float64(tj.DESEvals))
	}
	if tj.SurrogateEvals > 0 {
		rec.layer("surrogate.price_us", float64(tj.SurrogateWall)/float64(time.Microsecond)/float64(tj.SurrogateEvals))
	}
	if search > 0 {
		rec.layer("surrogate.share", float64(tj.SurrogateWall)/float64(search))
	}
}

// endpoints converts collective placements to transport endpoints.
func endpoints(places []collectives.Placement) []transport.Endpoint {
	out := make([]transport.Endpoint, len(places))
	for i, p := range places {
		out[i] = transport.Endpoint{Node: p.Node, Core: p.Core}
	}
	return out
}

// derive maps (seed, k) to an independent 63-bit seed (splitmix64).
func derive(seed int64, k int) int64 {
	z := uint64(seed) + uint64(k+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}
