// Package collectives runs MPI collective algorithms as discrete-event
// processes over the Roadrunner interconnect models: every rank is a
// sim.Proc, and every message moves through internal/transport — the
// fabric model for crossbar-hop latency, the ib HCA model for payload
// streaming, and (when the congestion policy is on) link-level channel
// occupancy over the routed cable topology — so protocol overheads, the
// eager/rendezvous switch, near/far core asymmetry, HCA multi-flow
// serialization and uplink contention all shape the collective's timing
// exactly as they shape point-to-point transfers.
//
// The package implements the algorithm repertoire an Open MPI of the
// paper's era would choose from — binomial-tree broadcast, a
// recursive-doubling (dissemination) barrier, recursive-doubling,
// Rabenseifner and ring allreduce, ring allgather and pairwise-exchange
// alltoall — each carrying real (small) semantic payloads so reductions
// and gathers are validated end to end, while the modeled wire size is
// set independently so bandwidth regimes can be explored without moving
// gigabytes of host memory.
//
// A Result reports the slowest rank's completion time (the MPI
// convention for collective latency), message and wire-byte counts, and
// the engine's event statistics. Runs are deterministic: the same
// Config, Op and size always produce the same Result.
package collectives

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"roadrunner/internal/fabric"
	"roadrunner/internal/ib"
	"roadrunner/internal/params"
	"roadrunner/internal/sim"
	"roadrunner/internal/transport"
	"roadrunner/internal/units"
)

// Op identifies a collective algorithm.
type Op string

// The implemented algorithms.
const (
	BcastBinomial              Op = "bcast-binomial"
	BarrierRecursiveDoubling   Op = "barrier-recursive-doubling"
	AllreduceRecursiveDoubling Op = "allreduce-recursive-doubling"
	AllreduceRabenseifner      Op = "allreduce-rabenseifner"
	AllreduceRing              Op = "allreduce-ring"
	AllgatherRing              Op = "allgather-ring"
	AlltoallPairwise           Op = "alltoall-pairwise"
)

// Ops returns every implemented algorithm, in a stable order.
func Ops() []Op {
	return []Op{
		BcastBinomial,
		BarrierRecursiveDoubling,
		AllreduceRecursiveDoubling,
		AllreduceRabenseifner,
		AllreduceRing,
		AllgatherRing,
		AlltoallPairwise,
	}
}

// Placement locates one rank on the machine: the node it runs on and the
// Opteron core it issues MPI calls from (HCA proximity per Fig. 8).
type Placement struct {
	Node fabric.NodeID
	Core int
}

// BlockPlacement places ranks on consecutive nodes in global order, one
// rank per node, all on the given Opteron core. This is the natural
// MPI rank order of Fig. 10's latency map.
func BlockPlacement(fab *fabric.System, ranks, core int) []Placement {
	if ranks > fab.Nodes() {
		panic(fmt.Sprintf("collectives: %d ranks exceed %d nodes", ranks, fab.Nodes()))
	}
	out := make([]Placement, ranks)
	for i := range out {
		out[i] = Placement{Node: fabric.FromGlobal(i), Core: core}
	}
	return out
}

// StridedPlacement places rank i on global node (i*stride) mod the node
// count. HPL's process rows and columns map onto the machine this way: a
// row of a column-major P×Q grid is ranks {r, r+P, r+2P, ...}, i.e. a
// stride-P walk across nodes, which spreads one communicator over many
// CUs.
func StridedPlacement(fab *fabric.System, ranks, stride, core int) []Placement {
	if ranks > fab.Nodes() {
		panic(fmt.Sprintf("collectives: %d ranks exceed %d nodes", ranks, fab.Nodes()))
	}
	if stride < 1 {
		panic("collectives: stride < 1")
	}
	n := fab.Nodes()
	out := make([]Placement, ranks)
	seen := make(map[int]bool, ranks)
	g := 0
	for i := range out {
		for seen[g%n] {
			// Stride wrapped onto an occupied node: advance to the next
			// free one so every rank still gets its own HCA.
			g++
		}
		seen[g%n] = true
		out[i] = Placement{Node: fabric.FromGlobal(g % n), Core: core}
		g += stride
	}
	return out
}

// PackedPlacement places perNode ranks on each node, on cores
// 0..perNode-1, so a communicator mixes near (1, 3) and far (0, 2) HCA
// cores and shares each node's adapter among its local ranks.
func PackedPlacement(fab *fabric.System, ranks, perNode int) []Placement {
	if perNode < 1 || perNode > 4 {
		panic("collectives: perNode outside 1..4")
	}
	if (ranks+perNode-1)/perNode > fab.Nodes() {
		panic(fmt.Sprintf("collectives: %d ranks at %d/node exceed %d nodes",
			ranks, perNode, fab.Nodes()))
	}
	out := make([]Placement, ranks)
	for i := range out {
		out[i] = Placement{Node: fabric.FromGlobal(i / perNode), Core: i % perNode}
	}
	return out
}

// Config describes one collective run: the fabric the ranks live on, the
// MPI/IB protocol profile, the rank→node mapping, the link congestion
// policy, and the broadcast root.
type Config struct {
	Fabric  *fabric.System
	Profile ib.Profile
	Places  []Placement
	// Congestion selects the transport's link-occupancy model. The zero
	// value keeps the PR 2 infinite-capacity path;
	// transport.Congested() makes concurrent flows on one cable
	// serialize, so the 2:1 taper throttles dense exchanges.
	Congestion transport.Policy
	Root       int // broadcast root rank (0 if unset)
}

// DefaultConfig returns the canonical communicator for the given node
// count: one rank per node on a near core, the Open MPI profile, over
// the smallest fabric that holds them. The scenario sweeps and the
// rrsim/facade one-off runs share this setup so a CLI run reproduces a
// sweep point exactly.
func DefaultConfig(nodes int) (Config, error) {
	return DefaultConfigOn(fabric.DefaultTopology, nodes)
}

// DefaultConfigOn is DefaultConfig over the named fabric topology
// (fabric.Topologies lists them); "fattree" reproduces DefaultConfig
// byte for byte.
func DefaultConfigOn(topology string, nodes int) (Config, error) {
	if nodes < 1 {
		return Config{}, fmt.Errorf("collectives: need at least 1 node, got %d", nodes)
	}
	cus := (nodes + params.NodesPerCU - 1) / params.NodesPerCU
	if cus > params.NumCUs {
		return Config{}, fmt.Errorf("collectives: %d nodes exceed the %d-CU machine", nodes, params.NumCUs)
	}
	fab, err := fabric.NewTopologyScaled(topology, cus)
	if err != nil {
		return Config{}, err
	}
	return Config{
		Fabric:  fab,
		Profile: ib.OpenMPI(),
		Places:  BlockPlacement(fab, nodes, 1),
	}, nil
}

// CongestedConfig is DefaultConfig with the wormhole congestion policy:
// every message is routed over the cable topology and concurrent flows
// crossing the same link serialize.
func CongestedConfig(nodes int) (Config, error) {
	return CongestedConfigOn(fabric.DefaultTopology, nodes)
}

// CongestedConfigOn is DefaultConfigOn with the wormhole congestion
// policy.
func CongestedConfigOn(topology string, nodes int) (Config, error) {
	cfg, err := DefaultConfigOn(topology, nodes)
	if err != nil {
		return Config{}, err
	}
	cfg.Congestion = transport.Congested()
	return cfg, nil
}

// Result is the outcome of one collective operation.
type Result struct {
	Op    Op
	Ranks int
	// Size is the per-rank payload in bytes (the collective's message
	// size parameter; see each algorithm for what it denotes).
	Size units.Size
	// Time is the completion time of the slowest rank, the MPI
	// convention for collective latency.
	Time units.Time
	// MinTime is the completion time of the fastest rank.
	MinTime units.Time
	// Messages counts every point-to-point message the algorithm sent;
	// WireBytes counts the modeled payload bytes that actually crossed
	// the fabric (intra-node shared-memory messages excluded).
	Messages  int64
	WireBytes units.Size
	// Data holds each rank's final semantic payload (validated against
	// the collective's definition before Run returns).
	Data [][]float64
	// EngineStats snapshots the DES engine after the run.
	EngineStats sim.Stats
	// Congestion is the transport's link-occupancy census (nil when the
	// run used the infinite-capacity PR 2 fabric).
	Congestion *transport.Census
}

// Bandwidth returns the effective per-rank bandwidth Size/Time, the
// usual way collective microbenchmarks report large-message performance.
func (r *Result) Bandwidth() units.Bandwidth {
	if r.Time <= 0 {
		return 0
	}
	return units.Bandwidth(float64(r.Size) / r.Time.Seconds())
}

// comm is the per-run communicator state shared by all rank procs: the
// transport net moving the modeled bytes, and each rank's receive state.
type comm struct {
	cfg    Config
	net    *transport.Net
	ranks  []rankState
	finish []units.Time

	// Messages pool through a free list with their delivery closure
	// bound once, so the send/recv hot path — millions of messages in a
	// full-machine alltoall — allocates nothing beyond the semantic
	// payload.
	freeMsg *message
}

// rankState is one rank's receive side: its inbox, the match slots its
// receive predicate reads, and the fused send-receive's in-flight state.
// The predicate and the completion hook are bound once per rank. Only
// rank r reads inbox r, so the match slots stay stable while it waits.
type rankState struct {
	inbox    *sim.Mailbox[*message]
	src, tag int // the receive being matched
	pred     func(*message) bool

	p    *sim.Proc          // the rank's proc, parked in sendrecv
	x    *transport.Pending // sendrecv's transfer in flight
	got  *message           // matched by the completion hook, for p to take
	done func()             // bound completion hook of sendrecv's transfer
}

// message is one in-flight point-to-point transfer inside a collective.
type message struct {
	src  int
	tag  int
	data []float64

	box     *sim.Mailbox[*message] // destination inbox of the current flight
	deliver func()                 // bound once: box.Put(this)
	next    *message               // free-list link
}

func newComm(eng *sim.Engine, cfg Config) *comm {
	c := &comm{
		cfg:    cfg,
		net:    transport.New(eng, cfg.Fabric, cfg.Profile, cfg.Congestion),
		ranks:  make([]rankState, len(cfg.Places)),
		finish: make([]units.Time, len(cfg.Places)),
	}
	for i := range c.ranks {
		rs := &c.ranks[i]
		rs.inbox = sim.NewMailbox[*message](eng, fmt.Sprintf("coll-rank%d", i))
		rs.pred = func(m *message) bool { return m.src == rs.src && m.tag == rs.tag }
		rs.done = func() {
			c.net.FinishTransfer(rs.x)
			if m, ok := rs.inbox.MatchOrWait(rs.p, rs.pred); ok {
				rs.got = m
				rs.p.Resume()
			}
		}
	}
	return c
}

// getMsg pops a pooled message (allocating, with its delivery closure,
// on first use), addressed from src to dst.
func (c *comm) getMsg(src, dst, tag int, data []float64) *message {
	m := c.freeMsg
	if m == nil {
		m = &message{}
		m.deliver = func() { m.box.Put(m) }
	} else {
		c.freeMsg = m.next
		m.next = nil
	}
	m.src, m.tag, m.data = src, tag, data
	m.box = c.ranks[dst].inbox
	return m
}

// take recycles a delivered message and returns its payload.
func (c *comm) take(m *message) []float64 {
	data := m.data
	m.data = nil
	m.box = nil
	m.next = c.freeMsg
	c.freeMsg = m
	return data
}

// endpoint is rank r's transport endpoint.
func (c *comm) endpoint(r int) transport.Endpoint {
	pl := c.cfg.Places[r]
	return transport.Endpoint{Node: pl.Node, Core: pl.Core}
}

// send transmits a message from src to dst over the transport, blocking
// the calling proc for the sender-side costs (software overhead, the
// rendezvous round trip, link admission, the HCA stream); the payload is
// delivered to dst's mailbox after the fabric traversal and the
// receive-side overhead.
func (c *comm) send(p *sim.Proc, src, dst, tag int, size units.Size, data []float64) {
	m := c.getMsg(src, dst, tag, data)
	c.net.Transfer(p, c.endpoint(src), c.endpoint(dst), size, m.deliver)
}

// recv blocks until the message with the given source and tag arrives at
// rank dst, recycles the message and returns its payload.
func (c *comm) recv(p *sim.Proc, dst, src, tag int) []float64 {
	rs := &c.ranks[dst]
	rs.src, rs.tag = src, tag
	return c.take(rs.inbox.GetMatch(p, rs.pred))
}

// sendrecv is MPI_Sendrecv: rank r sends data to dst under stag, then
// receives the message from src under rtag and returns its payload. It
// schedules exactly the calendar of send followed by recv, with one
// proc park per step instead of two for an inter-node payload message:
// the transfer's completion event runs the send tail and the receive
// match itself, and switches into the proc only if the matching message
// is already queued; otherwise it leaves the proc waiting on its inbox,
// and the next Put wakes it exactly as recv's would. Intra-node and
// zero-size sends, whose single-interval paths end on the proc itself,
// keep the blocking form.
func (c *comm) sendrecv(p *sim.Proc, r, dst, stag int, size units.Size, data []float64, src, rtag int) []float64 {
	a, b := c.cfg.Places[r].Node, c.cfg.Places[dst].Node
	if a == b || size <= 0 {
		c.send(p, r, dst, stag, size, data)
		return c.recv(p, r, src, rtag)
	}
	m := c.getMsg(r, dst, stag, data)
	rs := &c.ranks[r]
	rs.p = p
	rs.src, rs.tag = src, rtag
	rs.x = c.net.StartTransfer(p, c.net.PairPath(a, b), c.endpoint(r), c.endpoint(dst), size, m.deliver, rs.done)
	p.Park("sendrecv")
	if got := rs.got; got != nil {
		rs.got = nil
		return c.take(got)
	}
	// Woken by a Put: re-run the match as recv's GetMatch loop would.
	return c.take(rs.inbox.GetMatch(p, rs.pred))
}

// contribution is rank r's semantic input for element i. The values are
// integers (represented exactly in float64 up to the full machine's rank
// count), so reduction results are exact and order-independent and the
// validators can compare with ==.
func contribution(r, i int) float64 { return float64((r+1)*1000003 + i*7919) }

// reducedValue is the expected allreduce result for element i over p
// ranks: sum_r contribution(r, i).
func reducedValue(p, i int) float64 {
	return float64(1000003)*float64(p)*float64(p+1)/2 + float64(p)*float64(i*7919)
}

// Run executes one collective on a fresh engine and returns its Result.
// The run is deterministic and self-validating: reductions, gathers and
// broadcasts check their semantic payloads against the collective's
// definition and fail loudly on any algorithm bug.
func Run(cfg Config, op Op, size units.Size) (*Result, error) {
	ranks := len(cfg.Places)
	if ranks == 0 {
		return nil, fmt.Errorf("collectives: no ranks placed")
	}
	if cfg.Root < 0 || cfg.Root >= ranks {
		return nil, fmt.Errorf("collectives: root %d outside %d ranks", cfg.Root, ranks)
	}
	if size < 0 {
		return nil, fmt.Errorf("collectives: negative size %d", size)
	}
	algo, ok := algorithms[op]
	if !ok {
		return nil, fmt.Errorf("collectives: unknown op %q (have %v)", op, Ops())
	}
	eng := sim.NewEngine()
	defer eng.Close()
	c := newComm(eng, cfg)
	out := make([][]float64, ranks)
	for r := 0; r < ranks; r++ {
		r := r
		eng.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
			out[r] = algo(c, p, r, size)
			c.finish[r] = p.Now()
		})
	}
	if err := eng.Run(); err != nil {
		return nil, fmt.Errorf("collectives: %s over %d ranks: %w", op, ranks, err)
	}
	if err := validate(op, cfg, out); err != nil {
		return nil, err
	}
	return c.result(op, size, out, eng.Stats()), nil
}

// Request is one independent collective run, for RunMany.
type Request struct {
	Cfg  Config
	Op   Op
	Size units.Size
}

// RunMany executes independent collective runs on a pool of worker
// goroutines (workers < 1 means GOMAXPROCS), each worker calling Run
// on the next unclaimed request. Every run owns its engine, transport
// and fabric state, so each Result is byte-identical to Run's for the
// same request, and the results come back in request order at any
// worker count. A failure stops the claiming of further requests; the
// error returned is the lowest-indexed failure's, naming its index —
// every request below the first failure observed was already claimed
// and runs to completion, so which error is reported never depends on
// the worker count or on scheduling.
func RunMany(reqs []Request, workers int) ([]*Result, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("collectives: no requests")
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(reqs))
	results := make([]*Result, len(reqs))
	errs := make([]error, len(reqs))
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				rq := reqs[i]
				if results[i], errs[i] = Run(rq.Cfg, rq.Op, rq.Size); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("collectives: request %d: %w", i, err)
		}
	}
	return results, nil
}

// censusTop is how many contended links a Result's census retains.
const censusTop = 10

// result assembles a Result from the transport's counters.
func (c *comm) result(op Op, size units.Size, out [][]float64, st sim.Stats) *Result {
	res := &Result{
		Op:          op,
		Ranks:       len(c.cfg.Places),
		Size:        size,
		Messages:    c.net.Messages(),
		WireBytes:   c.net.WireBytes(),
		Data:        out,
		EngineStats: st,
		Congestion:  c.net.Census(censusTop),
	}
	res.MinTime = units.Time(math.MaxInt64)
	for _, f := range c.finish {
		if f > res.Time {
			res.Time = f
		}
		if f < res.MinTime {
			res.MinTime = f
		}
	}
	return res
}

// validate checks each rank's final semantic payload against the
// collective's definition.
func validate(op Op, cfg Config, out [][]float64) error {
	p := len(cfg.Places)
	fail := func(r int, msg string, args ...any) error {
		return fmt.Errorf("collectives: %s over %d ranks: rank %d: %s",
			op, p, r, fmt.Sprintf(msg, args...))
	}
	switch op {
	case BarrierRecursiveDoubling:
		return nil
	case BcastBinomial:
		for r := range out {
			if len(out[r]) != semanticLen {
				return fail(r, "payload length %d", len(out[r]))
			}
			for i, v := range out[r] {
				if want := contribution(cfg.Root, i); v != want {
					return fail(r, "element %d = %v, want %v", i, v, want)
				}
			}
		}
	case AllreduceRecursiveDoubling, AllreduceRabenseifner:
		for r := range out {
			if len(out[r]) != semanticLen {
				return fail(r, "payload length %d", len(out[r]))
			}
			for i, v := range out[r] {
				if want := reducedValue(p, i); v != want {
					return fail(r, "element %d = %v, want %v", i, v, want)
				}
			}
		}
	case AllreduceRing:
		for r := range out {
			if len(out[r]) != p {
				return fail(r, "payload length %d, want %d", len(out[r]), p)
			}
			for i, v := range out[r] {
				if want := reducedValue(p, i); v != want {
					return fail(r, "segment %d = %v, want %v", i, v, want)
				}
			}
		}
	case AllgatherRing:
		for r := range out {
			if len(out[r]) != p {
				return fail(r, "payload length %d, want %d", len(out[r]), p)
			}
			for i, v := range out[r] {
				if want := contribution(i, 0); v != want {
					return fail(r, "block %d = %v, want %v", i, v, want)
				}
			}
		}
	case AlltoallPairwise:
		for r := range out {
			if len(out[r]) != p {
				return fail(r, "payload length %d, want %d", len(out[r]), p)
			}
			for s, v := range out[r] {
				if want := contribution(s, r); v != want {
					return fail(r, "block from %d = %v, want %v", s, v, want)
				}
			}
		}
	default:
		return fmt.Errorf("collectives: no validator for %q", op)
	}
	return nil
}
