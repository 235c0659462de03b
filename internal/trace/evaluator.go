package trace

import (
	"fmt"
	"strconv"

	"roadrunner/internal/fabric"
	"roadrunner/internal/params"
	"roadrunner/internal/sim"
	"roadrunner/internal/transport"
	"roadrunner/internal/units"
)

// Evaluator is the batch replay evaluation path: everything a replay
// repeats across placements — trace validation, the compiled record
// streams, the sim engine with its rank procs, the transport's HCA and
// link state, the per-send delivery events and the proc-name strings —
// is built once, and each Evaluate call replays the trace under a new
// rank→node mapping on the pooled state. The placement optimizer calls
// the replay tens of thousands of times; paying validation (O(records)
// map churn) and engine/transport construction per call would dominate
// the search, so the evaluator turns the replay from a one-shot
// reporter into a search-grade objective function.
//
// The record streams are compiled to a compact op array per rank:
// one cache line holds three ops instead of one-and-a-half records, the
// kind dispatch is a byte instead of a string compare, compute
// durations carry the configured scaling pre-applied, and compute ops
// are dropped entirely under SkipCompute. The rank procs are daemon
// procs that park between evaluations, so an evaluation spawns no
// goroutines and allocates nothing but the result itself.
//
// Evaluate(places) is pinned byte-identical to a fresh Replay call with
// the same config and placement (TestEvaluatorMatchesFreshReplay): the
// pooled engine resets to time zero with the same event ordering, the
// transport zeroes every counter, and the route cache only memoizes
// wiring facts. An Evaluator is single-goroutine; run one per worker
// for parallel search.
type Evaluator struct {
	tr    *Trace
	cfg   ReplayConfig
	scale float64

	eng     *sim.Engine
	net     *transport.Net
	inbox   []*sim.Mailbox[replayMsg]
	procs   []*sim.Proc // daemon walkers, one per rank
	deliver []func()    // per-send delivery events, canonical send order
	nSends  int

	// pend carries each rank's in-flight fused compute+send: the op the
	// chain event issues and the transfer handle the woken walker
	// finishes.
	pendOp []*replayOp
	pendX  []*transport.Pending
	// chainFn is each rank's prebuilt compute-end event for fused
	// pairs: it issues the pending send from event context.
	chainFn []func()
	// match holds each rank's current recv-matching criteria, and
	// matchFn the per-rank predicate reading them: one closure per rank
	// for the evaluator's lifetime instead of one escaping closure per
	// recv per evaluation (the single largest allocation source of the
	// unpooled replay).
	match   []replayMsg
	matchFn []func(replayMsg) bool
	// pairs caches the transport PairPath per directed rank pair
	// (src*ranks+dst) by value — the zero value is unresolved — and is
	// cleared at each Evaluate (the placement decides the node pair
	// behind a rank pair). It drops even the transport's route-cache
	// lookup from the per-message cost; nil for traces too wide for a
	// dense table, where each send resolves its PairPath afresh.
	pairs []transport.PairPath

	// Per-evaluation state the walkers read.
	places    []transport.Endpoint
	sends     []MessageTiming // nil unless ObserveSends
	sendsBuf  []MessageTiming // reusable backing for sends
	res       *ReplayResult
	ranksDone int
	err       error

	used   bool // at least one Evaluate ran: reset and wake next time
	closed bool
}

// The compiled op kinds.
const (
	opCompute = iota
	opSend
	opRecv
	// opComputeSend is a compute record whose next record is its rank's
	// send: the walker parks once for the pair, chaining the compute
	// interval's end event straight into the send's transfer chain
	// (StartTransfer is event-context-safe). The calendar is identical
	// to the unfused execution — the compute's resume slot becomes the
	// chain step, which performs exactly the sends' issue-time work —
	// at one proc park/resume instead of two. Falls back to the unfused
	// shape at run time for intra-node and zero-size sends, whose
	// single-interval paths end on the proc itself.
	opComputeSend
)

// replayOp is one compiled record: just the fields the walker's hot
// loop touches, 40 bytes instead of a 104-byte Record.
type replayOp struct {
	op   uint8
	peer int32 // send destination / recv source rank
	tag  int32
	// aux is the send's Sends slot, or the recv's expected dep seq.
	aux  int32
	size units.Size
	dur  units.Time // compute duration, scaling pre-applied
}

// NewEvaluator validates the trace once and builds the pooled replay
// state for it. The config's Places field is ignored — the placement is
// the argument of each Evaluate call; everything else (fabric, profile,
// congestion policy, compute scaling, observers) is fixed for the
// evaluator's lifetime. Close releases the engine when done.
func NewEvaluator(t *Trace, cfg ReplayConfig) (*Evaluator, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if cfg.Fabric == nil {
		return nil, fmt.Errorf("trace: replay: nil fabric")
	}
	scale, err := computeScale(cfg.ComputeScale)
	if err != nil {
		return nil, err
	}
	ranks := t.Meta.Ranks
	e := &Evaluator{tr: t, cfg: cfg, scale: scale}

	// Compile the per-rank streams: canonical order, send slots dense in
	// record order, compute ops pre-scaled (or dropped under
	// SkipCompute — replay never branches on the flag again).
	streams := make([][]replayOp, ranks)
	var ops []replayOp // one backing array, sliced per rank
	for i, r := range t.Records {
		switch r.Kind {
		case KindCompute:
			if cfg.SkipCompute {
				continue
			}
			op := uint8(opCompute)
			if i+1 < len(t.Records) && t.Records[i+1].Rank == r.Rank && t.Records[i+1].Kind == KindSend {
				op = opComputeSend
			}
			ops = append(ops, replayOp{op: op,
				dur: units.Time(float64(r.Duration) * scale)})
		case KindSend:
			ops = append(ops, replayOp{op: opSend, peer: int32(r.Peer),
				tag: int32(r.Tag), aux: int32(e.nSends), size: r.Size})
			e.nSends++
		case KindRecv:
			ops = append(ops, replayOp{op: opRecv, peer: int32(r.Peer),
				tag: int32(r.Tag), aux: int32(r.Dep)})
		}
	}
	start := 0
	ri := 0
	for i, r := range t.Records {
		if !(r.Kind == KindCompute && cfg.SkipCompute) {
			ri++
		}
		if i+1 == len(t.Records) || t.Records[i+1].Rank != r.Rank {
			streams[r.Rank] = ops[start:ri:ri]
			start = ri
		}
	}

	e.eng = sim.NewEngine()
	e.net = transport.New(e.eng, cfg.Fabric, cfg.Profile, cfg.Policy)
	e.inbox = make([]*sim.Mailbox[replayMsg], ranks)
	names := make([]string, ranks)
	for i := range e.inbox {
		names[i] = "replay-rank" + strconv.Itoa(i)
		e.inbox[i] = sim.NewMailbox[replayMsg](e.eng, names[i])
	}

	// One delivery event per send record, allocated once: the closure
	// reads the evaluator's per-evaluation observer state, so reuse
	// never re-captures anything.
	e.deliver = make([]func(), e.nSends)
	slot := 0
	for _, r := range t.Records {
		if r.Kind != KindSend {
			continue
		}
		s := slot
		slot++
		msg := replayMsg{src: r.Rank, tag: r.Tag, seq: r.Seq}
		box := e.inbox[r.Peer]
		e.deliver[s] = func() {
			if e.sends != nil {
				e.sends[s].Delivered = e.eng.Now()
			}
			box.Put(msg)
		}
	}

	// A dense rank-pair path table is only worth holding for realistic
	// rank counts; beyond the bound each send resolves its route from
	// the transport's route cache.
	if ranks*ranks <= 1<<22 {
		e.pairs = make([]transport.PairPath, ranks*ranks)
	}

	// One daemon walker proc per rank, spawned once: it walks the
	// rank's compiled stream, then parks until the next evaluation
	// wakes it. The spawn schedules each walker's first wake, so the
	// first Evaluate runs them exactly as one-shot Replay spawns ran.
	e.match = make([]replayMsg, ranks)
	e.matchFn = make([]func(replayMsg) bool, ranks)
	e.pendOp = make([]*replayOp, ranks)
	e.pendX = make([]*transport.Pending, ranks)
	e.chainFn = make([]func(), ranks)
	e.procs = make([]*sim.Proc, ranks)
	for rank := 0; rank < ranks; rank++ {
		rank := rank
		stream := streams[rank]
		e.matchFn[rank] = func(m replayMsg) bool {
			return m.src == e.match[rank].src && m.tag == e.match[rank].tag
		}
		// issueSend performs a send's issue-time work: the observer
		// stamp, the pair-path lookup and the chained-transfer start.
		// Called from the walker at the send op, or — for a fused
		// compute+send — from the compute's end event.
		issueSend := func(o *replayOp) *transport.Pending {
			if e.sends != nil {
				mt := &e.sends[o.aux]
				mt.SrcRank, mt.DstRank = rank, int(o.peer)
				mt.Tag, mt.Size = int(o.tag), o.size
				mt.SendStart = e.eng.Now()
			}
			src, dst := e.places[rank], e.places[o.peer]
			var pp transport.PairPath
			if e.pairs == nil {
				pp = e.net.PairPath(src.Node, dst.Node)
			} else {
				pi := rank*len(e.places) + int(o.peer)
				pp = e.pairs[pi]
				if pp == (transport.PairPath{}) {
					pp = e.net.PairPath(src.Node, dst.Node)
					e.pairs[pi] = pp
				}
			}
			return e.net.StartTransfer(e.procs[rank], pp, src, dst, o.size, e.deliver[o.aux], nil)
		}
		e.chainFn[rank] = func() {
			e.pendX[rank] = issueSend(e.pendOp[rank])
		}
		box := e.inbox[rank]
		e.procs[rank] = e.eng.SpawnDaemon(names[rank], func(p *sim.Proc) {
			net, deliver, matchFn := e.net, e.deliver, e.matchFn[rank]
			for {
				// Per-evaluation state, hoisted out of the record loop.
				places, sends := e.places, e.sends
				for i := 0; i < len(stream); i++ {
					o := &stream[i]
					switch o.op {
					case opCompute:
						p.Sleep(o.dur)
					case opComputeSend:
						nxt := &stream[i+1]
						if nxt.size <= 0 || places[rank].Node == places[nxt.peer].Node {
							// Single-interval send paths end on the proc
							// itself: keep the unfused shape.
							p.Sleep(o.dur)
							continue
						}
						i++
						// Park once: the compute interval's end event
						// issues the send, the stream's completion wakes
						// us for the tail.
						e.pendOp[rank] = nxt
						e.eng.Schedule(o.dur, e.chainFn[rank])
						p.Park("compute+send")
						net.FinishTransfer(e.pendX[rank])
						if sends != nil {
							sends[nxt.aux].SendEnd = p.Now()
						}
					case opSend:
						src, dst := places[rank], places[o.peer]
						if src.Node == dst.Node || o.size <= 0 {
							if sends != nil {
								mt := &sends[o.aux]
								mt.SrcRank, mt.DstRank = rank, int(o.peer)
								mt.Tag, mt.Size = int(o.tag), o.size
								mt.SendStart = p.Now()
							}
							net.Transfer(p, src, dst, o.size, deliver[o.aux])
							if sends != nil {
								sends[o.aux].SendEnd = p.Now()
							}
							continue
						}
						x := issueSend(o)
						p.Park("transfer")
						net.FinishTransfer(x)
						if sends != nil {
							sends[o.aux].SendEnd = p.Now()
						}
					case opRecv:
						e.match[rank] = replayMsg{src: int(o.peer), tag: int(o.tag)}
						m := box.GetMatch(p, matchFn)
						if m.seq != int(o.aux) {
							// Validate guarantees FIFO matching; reaching
							// here is an engine-level bug, not a trace
							// error.
							e.fail(fmt.Errorf("trace: replay: rank %d recv from %d tag %d satisfied by send seq %d, dep says %d",
								rank, o.peer, o.tag, m.seq, o.aux))
						}
					}
				}
				e.res.RankFinish[rank] = p.Now()
				e.ranksDone++
				p.Park("replay-idle")
			}
		})
	}
	return e, nil
}

// fail records the first replay-invariant violation.
func (e *Evaluator) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// Trace returns the trace the evaluator replays.
func (e *Evaluator) Trace() *Trace { return e.tr }

// Evaluate replays the trace under the given rank→node placement and
// returns the result. The config's Observe flags decide how much of it
// is populated: the makespan, rank finish times and transport counters
// always are; per-send timing and the link census only when requested —
// the optimizer's inner loop pays only for what it reads.
func (e *Evaluator) Evaluate(places []transport.Endpoint) (*ReplayResult, error) {
	if e.closed {
		return nil, fmt.Errorf("trace: replay: evaluator is closed")
	}
	if err := validatePlaces(e.tr, e.cfg.Fabric, places); err != nil {
		return nil, err
	}
	if e.used {
		e.eng.Reset()
		e.net.Reset()
		clear(e.pairs) // the placement decides each rank pair's route
		// Wake the walkers in rank order: the same event sequence the
		// first evaluation's spawn wakes produced.
		for _, p := range e.procs {
			p.Wake()
		}
	}
	e.used = true
	e.places = places
	e.err = nil
	e.ranksDone = 0
	if e.cfg.Observe&ObserveSends != 0 {
		if e.sendsBuf == nil {
			e.sendsBuf = make([]MessageTiming, e.nSends)
		} else {
			clear(e.sendsBuf)
		}
		e.sends = e.sendsBuf
	} else {
		e.sends = nil
	}
	res := &ReplayResult{
		Name:       e.tr.Meta.Name,
		Ranks:      e.tr.Meta.Ranks,
		RankFinish: make([]units.Time, e.tr.Meta.Ranks),
	}
	e.res = res
	if err := e.eng.Run(); err != nil {
		e.Close()
		return nil, fmt.Errorf("trace: replay %s: %w", e.tr.Meta.Name, err)
	}
	if e.err != nil {
		return nil, e.err
	}
	if e.ranksDone != e.tr.Meta.Ranks {
		// A validated trace always completes; a stalled walker is an
		// engine-level bug, and the pooled state is unusable (daemons
		// are exempt from the engine's own deadlock detection).
		e.Close()
		return nil, fmt.Errorf("trace: replay %s: %d of %d ranks completed",
			e.tr.Meta.Name, e.ranksDone, e.tr.Meta.Ranks)
	}
	for _, f := range res.RankFinish {
		if f > res.Time {
			res.Time = f
		}
	}
	res.Messages = e.net.Messages()
	res.WireBytes = e.net.WireBytes()
	if e.sends != nil {
		res.Sends = make([]MessageTiming, e.nSends)
		copy(res.Sends, e.sends)
		e.sends = nil
	}
	if e.cfg.Observe&ObserveCensus != 0 {
		res.Congestion = e.net.Census(replayCensusTop)
	}
	res.EngineStats = e.eng.Stats()
	e.res = nil
	return res, nil
}

// Close releases the evaluator's engine and its walker procs. The
// evaluator is unusable afterwards; Close is idempotent.
func (e *Evaluator) Close() {
	if e.closed {
		return
	}
	e.closed = true
	e.eng.Close()
}

// validatePlaces checks a placement against the trace and fabric the
// way Replay always has: every rank placed, on a node inside the
// fabric, on a real Opteron core.
func validatePlaces(t *Trace, fab *fabric.System, places []transport.Endpoint) error {
	if len(places) != t.Meta.Ranks {
		return fmt.Errorf("trace: replay: %d placements for %d ranks", len(places), t.Meta.Ranks)
	}
	for r, pl := range places {
		// Bound the CU index directly rather than via GlobalID(), whose
		// CU*NodesPerCU product overflows int for absurd CU values and
		// would wrap negative past the fab.Nodes() comparison.
		if pl.Node.CU < 0 || pl.Node.CU >= fab.Nodes()/params.NodesPerCU ||
			pl.Node.Node < 0 || pl.Node.Node >= params.NodesPerCU {
			return fmt.Errorf("trace: replay: rank %d placed on %v outside the %d-node fabric",
				r, pl.Node, fab.Nodes())
		}
		if pl.Core < 0 || pl.Core > 3 {
			return fmt.Errorf("trace: replay: rank %d on core %d (want 0..3)", r, pl.Core)
		}
	}
	return nil
}
