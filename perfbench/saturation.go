package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"roadrunner/internal/collectives"
	"roadrunner/internal/scenario"
)

// saturationNodes are the coll-saturation sweep's communicator sizes
// from one CU to six, without the full-machine point.
var saturationNodes = []int{180, 360, 720, 1080}

// saturation runs the coll-saturation sweep's requests: every dense
// exchange at every size on the infinite-capacity fabric and on its
// congested twin. The benchmark owns the worker pool and hands each
// request to collectives.RunMany on its own, claiming requests in
// sweep order as the sim.Cluster pool does, so every run gets a span.
type saturation struct {
	workers int
	reqs    []collectives.Request
	names   []string
	first   []string // pass-0 simulated summary of each request
}

func setupSaturation(e env, tr *tracer) (instance, error) {
	sp := tr.begin(tr.newOp(), 0, "collectives.Config")
	defer tr.end(sp)
	s := &saturation{workers: e.workers}
	for _, op := range scenario.SaturationOps {
		for _, n := range saturationNodes {
			base, err := collectives.DefaultConfig(n)
			if err != nil {
				return nil, err
			}
			cong, err := collectives.CongestedConfig(n)
			if err != nil {
				return nil, err
			}
			s.reqs = append(s.reqs,
				collectives.Request{Cfg: base, Op: op, Size: scenario.SaturationSize},
				collectives.Request{Cfg: cong, Op: op, Size: scenario.SaturationSize})
			s.names = append(s.names,
				fmt.Sprintf("%s/%d/infinite", op, n), fmt.Sprintf("%s/%d/congested", op, n))
		}
	}
	return s, nil
}

func (s *saturation) close() {}

// satRun is one request's outcome: host is the run's own host time,
// done its completion time since the pass started (the sweep submits
// every run at once, so this is its submit-to-result latency).
type satRun struct {
	res  *collectives.Result
	err  error
	host time.Duration
	done time.Duration
}

func (s *saturation) pass(rec *recorder) error {
	rec.note("inputs do not depend on --seed: the sweep is fixed, so sim_digest is the same for every seed")
	rec.note("%d runs per pass (%d sizes x %d ops x infinite/congested) on %d workers, %v per block",
		len(s.reqs), len(saturationNodes), len(scenario.SaturationOps), s.workers, scenario.SaturationSize)
	tr := rec.tr
	root := tr.begin(tr.newOp(), 0, "saturation.pass")
	runs := make([]satRun, len(s.reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < s.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(s.reqs) {
					return
				}
				sp := tr.begin(tr.newOp(), root, "collectives.RunMany")
				t0 := time.Now()
				rs, err := collectives.RunMany(s.reqs[i:i+1], 1)
				runs[i].host = time.Since(t0)
				runs[i].done = time.Since(start)
				tr.end(sp)
				if err == nil {
					runs[i].res = rs[0]
				}
				runs[i].err = err
			}
		}()
	}
	wg.Wait()
	poolWall := time.Since(start)
	tr.end(root)

	summaries := make([]string, len(runs))
	for i, r := range runs {
		var err error
		summaries[i], err = s.check(i, r)
		rec.op(r.done, err)
	}
	if rec.first() {
		s.first = summaries
		for _, sum := range summaries {
			rec.sim("%s", sum)
		}
	}
	if rec.traced() {
		s.layers(rec, runs, poolWall)
	}
	return nil
}

// check validates one run and returns its simulated summary. The
// collective validates its own payloads (an error from RunMany); a
// congested run must carry its census and move the same messages as its
// infinite-capacity twin; every pass must reproduce the first exactly.
func (s *saturation) check(i int, r satRun) (string, error) {
	if r.err != nil {
		return "", fmt.Errorf("%s: %w", s.names[i], r.err)
	}
	res := r.res
	if res == nil || res.Messages <= 0 || res.Time <= 0 {
		return "", fmt.Errorf("%s: empty result", s.names[i])
	}
	congested := s.reqs[i].Cfg.Congestion.Enabled
	if congested != (res.Congestion != nil) {
		return "", fmt.Errorf("%s: census present=%v on a congested=%v run", s.names[i], res.Congestion != nil, congested)
	}
	sum := fmt.Sprintf("%s time=%d min=%d msgs=%d wire=%d events=%d peak=%d",
		s.names[i], res.Time, res.MinTime, res.Messages, res.WireBytes, res.EngineStats.Dispatched, res.EngineStats.CalendarPeak)
	if c := res.Congestion; c != nil {
		sum += fmt.Sprintf(" links=%d queued=%d wait=%d held=%d upq=%d upwait=%d",
			c.Links, c.Queued, c.TotalWait, c.PeakHeld, c.UplinkQueued, c.UplinkWait)
	}
	if s.first != nil && s.first[i] != sum {
		return sum, fmt.Errorf("%s: simulated output differs from pass 0:\n  %s\n  %s", s.names[i], s.first[i], sum)
	}
	return sum, nil
}

// layers records the per-layer samples of one traced pass.
func (s *saturation) layers(rec *recorder, runs []satRun, poolWall time.Duration) {
	var maxMS, sumMS, congHost, admission float64
	var events, msgs, queued, upq int64
	var wire, wait float64
	peak := 0
	for i, r := range runs {
		if r.res == nil {
			continue
		}
		ms := float64(r.host) / float64(time.Millisecond)
		maxMS = max(maxMS, ms)
		sumMS += ms
		st := r.res.EngineStats
		events += st.Dispatched
		peak = max(peak, st.CalendarPeak)
		msgs += r.res.Messages
		wire += float64(r.res.WireBytes) / 1e6
		if c := r.res.Congestion; c != nil {
			queued += c.Queued
			wait += c.TotalWait.Seconds()
			upq += c.UplinkQueued
			// Requests come in (infinite, congested) pairs of one op
			// and size: the twin is the request before.
			if i > 0 && runs[i-1].res != nil {
				congHost += r.host.Seconds()
				admission += r.host.Seconds() - runs[i-1].host.Seconds()
			}
		}
	}
	rec.layer("collectives.run_ms_max", maxMS)
	rec.layer("collectives.run_ms_sum", sumMS)
	rec.layer("cluster.pool_efficiency", sumMS/1e3/(float64(s.workers)*poolWall.Seconds()))
	rec.layer("sim.events", float64(events))
	rec.layer("sim.events_per_s", float64(events)/poolWall.Seconds())
	rec.layer("sim.calendar_peak", float64(peak))
	rec.layer("transport.messages", float64(msgs))
	rec.layer("transport.wire_mb", wire)
	rec.layer("transport.queued_flows", float64(queued))
	rec.layer("transport.wait_s", wait)
	rec.layer("transport.uplink_queued", float64(upq))
	if congHost > 0 {
		rec.layer("transport.admission_share", admission/congHost)
	}
}
