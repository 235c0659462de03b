package transport

import (
	"testing"

	"roadrunner/internal/fabric"
	"roadrunner/internal/ib"
	"roadrunner/internal/params"
	"roadrunner/internal/sim"
	"roadrunner/internal/units"
)

// pairSample returns a deterministic spread of distinct node pairs on a
// 2-CU system: same-crossbar, same-CU cross-crossbar, cross-CU
// same-index, cross-CU different-crossbar, and a handful of strided
// pairs to reach every link kind a topology routes through.
func pairSample() [][2]fabric.NodeID {
	pairs := [][2]fabric.NodeID{
		{{CU: 0, Node: 0}, {CU: 0, Node: 1}},
		{{CU: 0, Node: 2}, {CU: 0, Node: 170}},
		{{CU: 0, Node: 3}, {CU: 1, Node: 3}},
		{{CU: 0, Node: 9}, {CU: 1, Node: 100}},
		{{CU: 1, Node: 177}, {CU: 0, Node: 40}},
	}
	for i := 0; i < params.NodesPerCU; i += 17 {
		pairs = append(pairs, [2]fabric.NodeID{
			{CU: 0, Node: i}, {CU: 1, Node: (i*7 + 3) % params.NodesPerCU},
		})
	}
	return pairs
}

// TestPairPathAdmissionOrderPerTopology pins, for every registered
// topology, the contract internal/surrogate folds offered load over:
// the route view's Links resolve to exactly the fabric route minus the
// node-port cables, sorted ascending by Link.Key() — the global
// acquisition order Pending.admit takes them in. A route-cache refactor
// that reorders or re-members the admission set would silently skew the
// analytic model; this test makes it loud.
func TestPairPathAdmissionOrderPerTopology(t *testing.T) {
	for _, name := range fabric.Topologies() {
		name := name
		t.Run(name, func(t *testing.T) {
			fab := topoSystem(t, name, 2)
			eng := sim.NewEngine()
			defer eng.Close()
			net := New(eng, fab, ib.OpenMPI(), Congested())
			for _, pr := range pairSample() {
				src, dst := pr[0], pr[1]
				rt := net.Route(src, dst)
				route := fab.Route(src, dst)

				// Membership: the admission set is the route's
				// fabric-interior links, node ports dropped (the ib HCA
				// model already bills that copper).
				want := map[uint64]fabric.Link{}
				nodePorts := 0
				for _, l := range route {
					if l.Kind == fabric.LinkNodePort {
						nodePorts++
						continue
					}
					want[l.Key()] = l
				}
				var got []fabric.Link
				for _, id := range rt.Links {
					got = append(got, net.Link(id))
				}
				if len(got) != len(want) {
					t.Fatalf("%s -> %s: %d admission links, route has %d interior links",
						src, dst, len(got), len(want))
				}
				for _, l := range got {
					if _, ok := want[l.Key()]; !ok {
						t.Fatalf("%s -> %s: admission link %v not on the route", src, dst, l)
					}
					if l.Kind == fabric.LinkNodePort {
						t.Fatalf("%s -> %s: node-port cable %v admission-controlled", src, dst, l)
					}
				}
				if nodePorts == 0 {
					t.Fatalf("%s -> %s: route carries no node-port cable", src, dst)
				}

				// Order: strictly ascending by Key — the deadlock-free
				// total acquisition order.
				for i := 1; i < len(got); i++ {
					if got[i-1].Key() >= got[i].Key() {
						t.Fatalf("%s -> %s: admission order not strictly ascending at %d: %v then %v",
							src, dst, i, got[i-1], got[i])
					}
				}

				// The view aliases the arena read-only: an append by
				// the caller must copy, never overwrite the next route.
				if cap(rt.Links) != len(rt.Links) {
					t.Fatalf("%s -> %s: route view has spare capacity %d into the arena",
						src, dst, cap(rt.Links)-len(rt.Links))
				}
			}
		})
	}
}

// TestPairPathTimingAccessorsPerTopology pins the route view's latency
// decomposition against the fabric's own hop count and the profile
// arithmetic the transfer path charges.
func TestPairPathTimingAccessorsPerTopology(t *testing.T) {
	prof := ib.OpenMPI()
	for _, name := range fabric.Topologies() {
		name := name
		t.Run(name, func(t *testing.T) {
			fab := topoSystem(t, name, 2)
			eng := sim.NewEngine()
			defer eng.Close()
			net := New(eng, fab, prof, Congested())
			for _, pr := range pairSample() {
				src, dst := pr[0], pr[1]
				rt := net.Route(src, dst)
				if want := fab.Hops(src, dst); rt.Hops != want {
					t.Errorf("%s -> %s: Hops %d, fabric says %d", src, dst, rt.Hops, want)
				}
				if want := units.Time(rt.Hops) * prof.HopLatency; rt.FabricLatency != want {
					t.Errorf("%s -> %s: FabricLatency %v, want %v", src, dst, rt.FabricLatency, want)
				}
				if want := 2 * (2*prof.PerSideOverhead + rt.FabricLatency); rt.RendezvousExtra != want {
					t.Errorf("%s -> %s: RendezvousExtra %v, want %v", src, dst, rt.RendezvousExtra, want)
				}
			}
		})
	}
}

// TestPairPathAdmissionEmptyWhenCongestionOff pins the congestion-off
// shape: no link state exists, so the admission set is empty while the
// timing accessors still resolve.
func TestPairPathAdmissionEmptyWhenCongestionOff(t *testing.T) {
	eng := sim.NewEngine()
	defer eng.Close()
	net := New(eng, fabric.NewScaled(2), ib.OpenMPI(), Policy{})
	rt := net.Route(fabric.NodeID{CU: 0, Node: 0}, fabric.NodeID{CU: 1, Node: 100})
	if len(rt.Links) != 0 || net.LinkCount() != 0 {
		t.Errorf("congestion-off admission set: %v (%d link ids), want empty", rt.Links, net.LinkCount())
	}
	if rt.Hops <= 0 || rt.FabricLatency <= 0 {
		t.Errorf("timing accessors empty off-path: hops %d lat %v", rt.Hops, rt.FabricLatency)
	}
}
