// Package transport owns the routed message path between nodes of the
// Roadrunner interconnect: the MPI software overheads, the
// eager/rendezvous protocol switch, the HCA streaming of internal/ib,
// and — new with this layer — link-level congestion over the explicit
// cable topology of internal/fabric.
//
// Point-to-point plumbing used to live inside internal/collectives as
// private send/recv helpers charging per-hop latency against an
// infinitely capacious fabric: two messages crossing the same uplink
// never queued, so the 2:1 taper at the CU uplinks could not throttle
// anything. Transfer instead routes every message over fabric.Route and,
// when the congestion policy is enabled, holds a sim.Resource-backed
// channel on every fabric-interior link of the route (spine, uplink and
// switch-internal cables — node ports belong to the ib adapter model;
// see acquire) while the payload streams: concurrent flows crossing the
// same cable serialize, exactly the mechanism a wormhole-routed fabric
// exhibits when the reduced fat tree saturates.
//
// The no-contention timing is unchanged from the PR 2 model: link
// channels are acquired before the HCA stream and released after it, so
// a flow that never queues sleeps through exactly the same event
// sequence as the unrouted path. With congestion off — or with the link
// capacity unlimited, the "infinite-capacity fabric" — results are
// byte-identical to the legacy model; the invariant is pinned by
// TestInfiniteCapacityMatchesOffPath here and, across every collective
// algorithm, by collectives.TestInfiniteCapacityReproducesLegacyModel.
//
// Endpoint flow accounting (ib.HCA sharing, duplex caps) composes with
// link occupancy rather than being replaced by it: the stream rate is
// still set chunk-by-chunk by the two adapters, while the links bound
// which flows can be on the wire at all.
package transport

import (
	"fmt"
	"math"
	"sort"

	"roadrunner/internal/fabric"
	"roadrunner/internal/ib"
	"roadrunner/internal/sim"
	"roadrunner/internal/units"
)

// unlimited is the effective capacity of an infinite-capacity link
// channel (admission never blocks, occupancy is still tracked).
const unlimited = 1 << 30

// arenaChunkBits sizes the route cache's link-id arena chunks (16K ids,
// 64 KB). The arena grows a whole chunk at a time and never copies, so
// a full-machine table is allocated once instead of re-copied on every
// growth, and a route view stays valid as later routes derive.
const arenaChunkBits = 14

// Policy configures link-level congestion.
type Policy struct {
	// Enabled routes every payload-carrying message over the cable
	// topology and accounts per-link occupancy. Off (the zero value)
	// reproduces the unrouted PR 2 path with no link state at all.
	Enabled bool
	// Channels is how many messages one directed link channel carries
	// concurrently before later flows queue. 1 models wormhole circuits
	// (concurrent flows on a cable serialize); <= 0 means unlimited —
	// the infinite-capacity fabric, which keeps the census but never
	// queues and therefore reproduces the legacy latency model exactly.
	Channels int
}

// Congested returns the default congestion policy: every cable a single
// wormhole channel per direction.
func Congested() Policy { return Policy{Enabled: true, Channels: 1} }

// InfiniteCapacity returns the routed policy with unlimited link
// capacity: occupancy is observed, nothing ever queues.
func InfiniteCapacity() Policy { return Policy{Enabled: true} }

// Endpoint locates one side of a transfer: the node and the Opteron core
// the MPI call issues from (HCA proximity per Fig. 8).
type Endpoint struct {
	Node fabric.NodeID
	Core int
}

// linkState is one directed link channel: its admission resource plus
// traffic counters.
type linkState struct {
	link  fabric.Link
	res   *sim.Resource
	msgs  int64
	bytes units.Size
}

// xbarPath is the cached routing work shared by every source node of one
// cache row toward one destination node. It is pointer-free and 8 bytes:
// the hop count (the latency terms are recomputed from it with the same
// integer arithmetic the transfer path charges), a derived flag, and the
// offset and length of the route's admission-controlled link ids in the
// net's arena, sorted into the global acquisition order. Rows are keyed
// by the topology's CacheKey, whose contract (two sources with one key
// share every route interior) is exactly what makes the shared entry
// exact: the fat-tree keys by line crossbar — 408 crossbars x 3,060
// nodes ≈ 1.2M entries, 24 KB per row and 10 MB for the whole table,
// which the garbage collector never scans — while the per-node-router
// torus keys by node (3,060 rows).
type xbarPath struct {
	off     uint32 // arena position of the first id: chunk<<arenaChunkBits | index
	hops    uint8  // crossbar traversals on the route (len(route)-1)
	nlinks  uint8  // admission-controlled links on the route
	derived bool
}

// PairPath is the resolved route of one directed inter-node pair, for
// callers that key transfers by an index of their own (the replay
// evaluator holds one per rank pair) and skip every per-message lookup.
// It is a copy of the 8-byte route-cache entry: hold it by value, no
// handle is allocated. The zero PairPath is unresolved.
type PairPath struct{ xp xbarPath }

// Route is the non-allocating view of one cached directed route for
// analytic callers (internal/surrogate): the latency decomposition the
// transfer path charges and the route's admission-controlled links.
type Route struct {
	// Hops is the route's crossbar traversal count (fabric.Route hops).
	Hops int
	// FabricLatency is the pure hop-latency term (hops x the profile's
	// per-hop latency).
	FabricLatency units.Time
	// RendezvousExtra is the round trip a message above the eager
	// threshold pays before admission: two software-overhead-plus-fabric
	// traversals each way.
	RendezvousExtra units.Time
	// Links holds the admission-controlled links — the fabric-interior
	// cables, node ports excluded — as dense link ids (Net.Link resolves
	// one), in the exact global acquisition order Pending.admit takes
	// them (ascending Link.Key). Empty on a congestion-off net: no link
	// state exists to acquire. Ids depend on derivation history and are
	// identity keys only. The slice aliases the net's append-only arena:
	// read it, never write it; it stays valid for the net's lifetime.
	// Analytic models that fold offered load over the route depend on
	// this order and membership; the per-topology route tests pin both.
	Links []int32
}

// Net is the per-engine transport instance: it owns the node HCAs and
// the lazily materialized link states of one simulation run.
type Net struct {
	eng  *sim.Engine
	fab  *fabric.System
	prof ib.Profile
	pol  Policy

	hcas   []*ib.HCA        // by destination global node id, nil until used
	ids    map[uint64]int32 // link Key → dense link id; nil with congestion off
	links  []*linkState     // by dense link id
	arena  [][]int32        // derived routes' admission link ids, fixed-size chunks
	xpaths [][]xbarPath     // by source cache key (fabric CacheKey), rows nil until used
	rbuf   []fabric.Link    // route scratch, sized to the topology's MaxRouteLen
	xfers  *Pending         // free list of chained-transfer state machines

	msgs int64
	wire units.Size
}

// New creates a transport instance on the engine.
func New(eng *sim.Engine, fab *fabric.System, prof ib.Profile, pol Policy) *Net {
	if fab == nil {
		panic("transport: nil fabric")
	}
	if fab.MaxRouteLen() > math.MaxUint8 {
		panic(fmt.Sprintf("transport: routes of up to %d links overflow the route cache entry", fab.MaxRouteLen()))
	}
	n := &Net{
		eng:    eng,
		fab:    fab,
		prof:   prof,
		pol:    pol,
		hcas:   make([]*ib.HCA, fab.Nodes()),
		xpaths: make([][]xbarPath, fab.CacheRows()),
		rbuf:   make([]fabric.Link, 0, fab.MaxRouteLen()),
	}
	if pol.Enabled {
		n.ids = make(map[uint64]int32)
	}
	return n
}

// Reset zeroes every traffic counter — transport totals, per-link
// occupancy and the endpoint HCA flow accounting — while keeping the
// HCA table, the link states (with their sim.Resource objects) and the
// route cache intact, so a pooled Net replays a fresh run without
// rebuilding any per-link state. Call it alongside sim.Engine.Reset;
// everything must be idle (no flows streaming, no admissions held).
func (n *Net) Reset() {
	n.msgs = 0
	n.wire = 0
	for _, st := range n.links {
		st.msgs = 0
		st.bytes = 0
		st.res.ResetStats()
	}
	for _, h := range n.hcas {
		if h != nil {
			h.ResetStats()
		}
	}
}

// Policy returns the congestion policy the net runs under.
func (n *Net) Policy() Policy { return n.pol }

// HCA returns (creating on first use) the node's adapter.
func (n *Net) HCA(node fabric.NodeID) *ib.HCA {
	g := node.GlobalID()
	h := n.hcas[g]
	if h == nil {
		h = ib.NewHCA(n.eng, n.prof)
		n.hcas[g] = h
	}
	return h
}

// Messages returns the number of transfers started, including intra-node
// shared-memory messages.
func (n *Net) Messages() int64 { return n.msgs }

// WireBytes returns the payload bytes that crossed the fabric
// (intra-node messages excluded).
func (n *Net) WireBytes() units.Size { return n.wire }

// Link returns the link behind a dense link id from Route.Links.
func (n *Net) Link(id int32) fabric.Link { return n.links[id].link }

// LinkCount returns how many link ids the net has assigned; every id in
// a Route's Links is below it.
func (n *Net) LinkCount() int { return len(n.links) }

// state returns the link's dense id, creating its channel state on
// first use.
func (n *Net) state(l fabric.Link) int32 {
	k := l.Key()
	id, ok := n.ids[k]
	if !ok {
		capacity := n.pol.Channels
		if capacity <= 0 {
			capacity = unlimited
		}
		id = int32(len(n.links))
		n.links = append(n.links, &linkState{link: l, res: sim.NewResource(n.eng, l.String(), capacity)})
		n.ids[k] = id
	}
	return id
}

// xpath returns (deriving on first use) the cached routing work from
// src's cache row to dst: the hop count and — with congestion on — the
// route's fabric-interior link ids already sorted into the global
// acquisition order. Every source node of one cache key shares the
// entry, which the topology's CacheKey contract makes exact (the
// node-port cable, the only per-node link, is excluded from admission —
// see Pending.admit). The cache survives Reset: link identities and hop
// counts are properties of the wiring, not of any one run. src and dst
// must be distinct nodes.
func (n *Net) xpath(src, dst fabric.NodeID) *xbarPath {
	key := n.fab.CacheKey(src)
	row := n.xpaths[key]
	if row == nil {
		row = make([]xbarPath, n.fab.Nodes())
		n.xpaths[key] = row
	}
	xp := &row[dst.GlobalID()]
	if !xp.derived {
		route := n.fab.RouteInto(n.rbuf[:0], src, dst)
		// len(Route) == Hops+1 for distinct nodes, pinned by the fabric
		// route tests; New bounds it by the entry's field widths.
		xp.hops = uint8(len(route) - 1)
		if n.pol.Enabled {
			c := len(n.arena) - 1
			if c < 0 || cap(n.arena[c])-len(n.arena[c]) < len(route) {
				n.arena = append(n.arena, make([]int32, 0, 1<<arenaChunkBits))
				c++
			}
			chunk := n.arena[c]
			pos := len(chunk)
			for _, l := range route {
				if l.Kind != fabric.LinkNodePort {
					chunk = append(chunk, n.state(l))
				}
			}
			n.arena[c] = chunk
			// Insertion sort by key: short, and routes arrive near-sorted.
			ids := chunk[pos:]
			for i := 1; i < len(ids); i++ {
				for j := i; j > 0 && n.links[ids[j]].link.Key() < n.links[ids[j-1]].link.Key(); j-- {
					ids[j], ids[j-1] = ids[j-1], ids[j]
				}
			}
			xp.off, xp.nlinks = uint32(c<<arenaChunkBits|pos), uint8(len(ids))
		}
		xp.derived = true
	}
	return xp
}

// fabLat is the entry's hop-latency term.
func (n *Net) fabLat(xp xbarPath) units.Time { return units.Time(xp.hops) * n.prof.HopLatency }

// rdvExtra is the entry's rendezvous round trip.
func (n *Net) rdvExtra(xp xbarPath) units.Time {
	return 2 * (2*n.prof.PerSideOverhead + n.fabLat(xp))
}

// admission returns the entry's admission link ids, capacity-clipped so
// an append by a caller can never write into the arena.
func (n *Net) admission(xp xbarPath) []int32 {
	if xp.nlinks == 0 {
		return nil
	}
	lo := xp.off & (1<<arenaChunkBits - 1)
	hi := lo + uint32(xp.nlinks)
	return n.arena[xp.off>>arenaChunkBits][lo:hi:hi]
}

// Route returns the view of the cached route from src to dst, deriving
// it on first use; a derived route allocates nothing. src and dst must
// be distinct nodes.
func (n *Net) Route(src, dst fabric.NodeID) Route {
	xp := *n.xpath(src, dst)
	return Route{
		Hops:            int(xp.hops),
		FabricLatency:   n.fabLat(xp),
		RendezvousExtra: n.rdvExtra(xp),
		Links:           n.admission(xp),
	}
}

// Transfer blocks the calling proc for the sender-visible cost of moving
// size bytes from src to dst — MPI software overhead, the rendezvous
// round trip above the eager threshold, link admission along the route,
// and the payload stream through both endpoints' HCAs — then schedules
// deliver after the fabric traversal and the receive-side overhead.
// Intra-node transfers take the shared-memory path: software overhead on
// each side, nothing on the fabric.
func (n *Net) Transfer(p *sim.Proc, src, dst Endpoint, size units.Size, deliver func()) {
	if src.Node == dst.Node {
		n.msgs++
		pr := n.prof
		p.Sleep(pr.PerSideOverhead)
		n.eng.Schedule(pr.PerSideOverhead, deliver)
		return
	}
	n.TransferVia(p, PairPath{*n.xpath(src.Node, dst.Node)}, src, dst, size, deliver)
}

// PairPath resolves the route of a directed inter-node pair for callers
// that key transfers by an index of their own and skip every
// per-message lookup. src and dst must be distinct nodes.
func (n *Net) PairPath(src, dst fabric.NodeID) PairPath {
	if src == dst {
		panic("transport: PairPath of an intra-node pair")
	}
	return PairPath{*n.xpath(src, dst)}
}

// TransferVia is Transfer for an inter-node pair whose PairPath the
// caller already holds; pp must be PairPath(src.Node, dst.Node).
//
// Payload-carrying transfers run as an event chain: the proc parks once
// and the software-overhead interval, the rendezvous round trip, link
// admission and every HCA chunk but the last are driven by scheduled
// events, with the final chunk's completion waking the proc to run the
// release-and-deliver tail. The chain performs exactly the Schedule
// calls the blocking form performed, at exactly the same instants (a
// queued admission re-checks on the same wake events a parked proc
// would), so the calendar — and therefore every simulated result — is
// bit-identical to the multi-sleep shape while costing one proc
// park/resume instead of one per interval.
func (n *Net) TransferVia(p *sim.Proc, pp PairPath, src, dst Endpoint, size units.Size, deliver func()) {
	if size <= 0 {
		n.msgs++
		n.wire += size
		pr := n.prof
		p.Sleep(pr.PerSideOverhead)
		n.eng.Schedule(n.fabLat(pp.xp)+pr.PerSideOverhead, deliver)
		return
	}
	x := n.StartTransfer(p, pp, src, dst, size, deliver)
	p.Park("transfer")
	// The final chunk's completion woke us.
	n.FinishTransfer(x)
}

// StartTransfer begins a payload-carrying chained transfer on behalf of
// proc p and returns its in-flight handle. It is safe to call from
// event context — replay walkers chain a compute interval directly
// into the send it precedes, parking their proc once for both. The
// caller must park p (with no wake pending); the chain wakes it when
// the stream completes, after which the caller runs FinishTransfer.
// size must be positive.
func (n *Net) StartTransfer(p *sim.Proc, pp PairPath, src, dst Endpoint, size units.Size, deliver func()) *Pending {
	n.msgs++
	pr := n.prof
	n.wire += size
	x := n.getXfer()
	x.p = p
	x.xp = pp.xp
	x.hsrc = n.HCA(src.Node)
	x.hdst = n.HCA(dst.Node)
	x.deliver = deliver
	x.pairBW = pr.PairBandwidth(src.Core, dst.Core)
	x.size = size
	x.remaining = size
	x.linkIdx = 0
	x.stage = xfAdmit
	// Above the eager threshold the rendezvous round trip precedes
	// admission; folding it into the initial delay schedules admission at
	// the same instant with one calendar event fewer per large message.
	delay := pr.PerSideOverhead
	if size > pr.EagerThreshold {
		delay += n.rdvExtra(pp.xp)
	}
	n.eng.Schedule(delay, x.stepFn)
	return x
}

// FinishTransfer runs a completed transfer's tail — deregister the HCA
// flow, release the route's links, schedule the delivery — exactly as
// the blocking form runs it after its last sleep. Call it from the
// woken proc, then the handle is recycled.
func (n *Net) FinishTransfer(x *Pending) {
	ib.EndBetween(x.hsrc, x.hdst)
	for _, id := range n.admission(x.xp) {
		n.links[id].res.Release(1)
	}
	n.eng.Schedule(n.fabLat(x.xp)+n.prof.PerSideOverhead, x.deliver)
	n.putXfer(x)
}

// xfer stages.
const (
	xfAdmit  = iota // overhead (and any rendezvous trip) slept; admit onto the route's links
	xfStream        // admitted; one event per HCA chunk interval
)

// Pending is one in-flight chained transfer. The step and admission
// continuations are bound once per object, and objects recycle through
// the net's free list, so a steady-state transfer allocates nothing.
type Pending struct {
	n          *Net
	p          *sim.Proc
	xp         xbarPath
	hsrc, hdst *ib.HCA
	deliver    func()
	pairBW     units.Bandwidth
	size       units.Size

	stage     uint8
	linkIdx   int
	remaining units.Size

	stepFn func()   // bound step; scheduled for every chain interval
	contFn func()   // bound admission continuation after a queued grant
	free   *Pending // next in the net's free list
}

// step advances the chain by one scheduled interval.
func (x *Pending) step() {
	if x.stage == xfAdmit {
		x.admit()
	} else {
		x.stream()
	}
}

// admit takes the route's links in the global acquisition order —
// every flow uses the same total order, so the hold-and-wait graph is
// acyclic and admission can never deadlock. Free links are taken
// inline; a contended link queues the continuation (contFn finishes the
// granted link's accounting and re-enters here for the rest of the
// route), on the same FIFO and wake events a blocked proc would use.
//
// Node-port cables are routed but not admission-controlled (xpath drops
// them): that wire is the adapter's own port, whose sharing the ib HCA
// flow model already charges (multi-flow serialization, duplex caps).
// Gating it here too would bill the same copper twice; the transport
// owns the crossbar-to-crossbar tiers the HCA cannot see.
func (x *Pending) admit() {
	ids := x.n.admission(x.xp)
	for x.linkIdx < len(ids) {
		st := x.n.links[ids[x.linkIdx]]
		if !st.res.AcquireFn(1, x.contFn) {
			return // queued; contFn continues from this link
		}
		st.msgs++
		st.bytes += x.size
		x.linkIdx++
	}
	x.stage = xfStream
	ib.BeginBetween(x.hsrc, x.hdst, x.size)
	x.stream()
}

// stream schedules the next HCA chunk interval at the rate both
// adapters sustain this instant; the last interval hands control back
// to the parked proc for the release-and-deliver tail.
func (x *Pending) stream() {
	chunk, t := ib.StepBetween(x.hsrc, x.hdst, x.remaining, x.pairBW)
	x.remaining -= chunk
	if x.remaining > 0 {
		x.n.eng.Schedule(t, x.stepFn)
	} else {
		x.p.WakeAfter(t)
	}
}

// getXfer pops a pooled transfer state machine (allocating on first
// use).
func (n *Net) getXfer() *Pending {
	x := n.xfers
	if x == nil {
		x = &Pending{n: n}
		x.stepFn = x.step
		x.contFn = func() {
			st := n.links[n.admission(x.xp)[x.linkIdx]]
			st.msgs++
			st.bytes += x.size
			x.linkIdx++
			x.admit()
		}
		return x
	}
	n.xfers = x.free
	x.free = nil
	return x
}

// putXfer returns a finished transfer to the pool.
func (n *Net) putXfer(x *Pending) {
	x.p = nil
	x.hsrc = nil
	x.hdst = nil
	x.deliver = nil
	x.free = n.xfers
	n.xfers = x
}

// LinkUsage reports one link channel's traffic and occupancy.
type LinkUsage struct {
	Link     fabric.Link
	Messages int64      // flows admitted onto the channel
	Bytes    units.Size // payload bytes carried
	PeakHeld int        // peak concurrent flows on the channel
	Queued   int64      // flows that had to wait for admission
	Wait     units.Time // total queueing delay behind the channel
	Busy     units.Time // time the channel had at least one flow
	// MeanQueue is the time-averaged admission queue length and
	// Utilization the busy fraction, both over the census horizon.
	MeanQueue   float64
	Utilization float64
}

// String renders the usage the way the CLI contention reports print it.
func (u LinkUsage) String() string {
	return fmt.Sprintf("%-28s %9d msgs %10s  wait %-10s util %5.1f%%  queue %.2f",
		u.Link, u.Messages, u.Bytes, u.Wait, 100*u.Utilization, u.MeanQueue)
}

// Census summarises link occupancy over one run.
type Census struct {
	// Horizon is the simulated instant the census was taken (the run's
	// makespan); utilizations are relative to it.
	Horizon units.Time
	// Links is the number of distinct directed link channels that
	// carried at least one flow.
	Links int
	// Queued counts flow admissions that had to wait, TotalWait their
	// cumulative queueing delay.
	Queued    int64
	TotalWait units.Time
	// PeakHeld is the highest concurrent flow count on any channel.
	PeakHeld int
	// Top holds the most contended channels, hottest first (by total
	// wait, then bytes carried, then link order).
	Top []LinkUsage
	// The uplink tier — the 2:1-tapered cables between the CUs and the
	// inter-CU switches — reported separately, so taper pressure is
	// distinguishable from middle-stage switch contention: queued flows
	// and wait on uplink cables only, and the hottest uplinks.
	UplinkQueued int64
	UplinkWait   units.Time
	TopUplinks   []LinkUsage
}

// Hotter is the census ranking: total wait first, bytes carried second,
// and — so that the top-N output is fully deterministic under ties —
// the link's total order (Key) as the final criterion. The census
// gathers links from a map, whose iteration order varies run to run;
// because Hotter is a strict total order (no two distinct links share a
// Key), the sorted output is identical regardless of input order, which
// the equal-occupancy regression test pins.
func Hotter(a, b LinkUsage) bool {
	if a.Wait != b.Wait {
		return a.Wait > b.Wait
	}
	if a.Bytes != b.Bytes {
		return a.Bytes > b.Bytes
	}
	return a.Link.Key() < b.Link.Key()
}

// Census builds the link census, with the top contended links ranked
// hottest first. A nil receiver or a congestion-off net returns nil.
// top bounds the ranked Top/TopUplinks lists; top <= 0 returns the
// summary counters with both lists empty. Links that carried no flow
// this run (possible on a pooled Net, where Reset keeps earlier runs'
// link states alive with zeroed counters) do not appear in the census.
func (n *Net) Census(top int) *Census {
	if n == nil || !n.pol.Enabled {
		return nil
	}
	if top < 0 {
		top = 0
	}
	c := &Census{Horizon: n.eng.Now()}
	all := make([]LinkUsage, 0, len(n.links))
	var uplinks []LinkUsage
	for _, st := range n.links {
		if st.msgs == 0 {
			continue
		}
		s := st.res.Stats()
		u := LinkUsage{
			Link:        st.link,
			Messages:    st.msgs,
			Bytes:       st.bytes,
			PeakHeld:    s.PeakInUse,
			Queued:      s.Contended,
			Wait:        s.WaitTime,
			Busy:        s.BusyTime,
			MeanQueue:   s.MeanQueue(c.Horizon),
			Utilization: s.Utilization(c.Horizon),
		}
		c.Links++
		c.Queued += u.Queued
		c.TotalWait += u.Wait
		if u.PeakHeld > c.PeakHeld {
			c.PeakHeld = u.PeakHeld
		}
		if u.Link.Kind == fabric.LinkUplink {
			c.UplinkQueued += u.Queued
			c.UplinkWait += u.Wait
			uplinks = append(uplinks, u)
		}
		all = append(all, u)
	}
	sort.Slice(all, func(i, j int) bool { return Hotter(all[i], all[j]) })
	sort.Slice(uplinks, func(i, j int) bool { return Hotter(uplinks[i], uplinks[j]) })
	if top < len(all) {
		all = all[:top]
	}
	if top < len(uplinks) {
		uplinks = uplinks[:top]
	}
	c.Top = all[:len(all):len(all)]
	c.TopUplinks = uplinks[:len(uplinks):len(uplinks)]
	return c
}
