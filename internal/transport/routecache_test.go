package transport

import (
	"reflect"
	"sort"
	"testing"
	"unsafe"

	"roadrunner/internal/fabric"
	"roadrunner/internal/ib"
	"roadrunner/internal/sim"
	"roadrunner/internal/units"
)

// TestRouteCacheEntryIsCompact pins the route-cache entry's shape: a
// full-machine fat-tree table holds 1.2M entries per Net, and every
// warm evaluator and surrogate clone owns one, so an entry that grows a
// pointer (which the collector must scan) or past one word multiplies
// straight into peak RSS and GC time.
func TestRouteCacheEntryIsCompact(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.String, reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s: the route-cache entry must be pointer-free", path, typ.Kind())
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		}
	}
	walk("xbarPath", reflect.TypeOf(xbarPath{}))
	if sz := unsafe.Sizeof(xbarPath{}); sz > 8 {
		t.Errorf("route-cache entry is %d bytes, want <= 8", sz)
	}
}

// scratchRoute is the from-scratch derivation the cache must match:
// fabric.Route with the node-port cables dropped, sorted by Link.Key.
func scratchRoute(fab *fabric.System, src, dst fabric.NodeID) (hops int, admission []fabric.Link) {
	route := fab.Route(src, dst)
	for _, l := range route {
		if l.Kind != fabric.LinkNodePort {
			admission = append(admission, l)
		}
	}
	sort.Slice(admission, func(i, j int) bool { return admission[i].Key() < admission[j].Key() })
	return len(route) - 1, admission
}

// rowSources returns one source node per cache row, the first in global
// node order that maps to it.
func rowSources(fab *fabric.System) []fabric.NodeID {
	seen := make([]bool, fab.CacheRows())
	var srcs []fabric.NodeID
	for g := 0; g < fab.Nodes(); g++ {
		src := fabric.FromGlobal(g)
		if k := fab.CacheKey(src); !seen[k] {
			seen[k] = true
			srcs = append(srcs, src)
		}
	}
	return srcs
}

// checkRouteCache compares every (cache row, destination) entry of the
// net with the from-scratch derivation.
func checkRouteCache(t *testing.T, fab *fabric.System, net *Net, prof ib.Profile) {
	t.Helper()
	for _, src := range rowSources(fab) {
		for g := 0; g < fab.Nodes(); g++ {
			dst := fabric.FromGlobal(g)
			if dst == src {
				continue
			}
			hops, want := scratchRoute(fab, src, dst)
			rt := net.Route(src, dst)
			lat := units.Time(hops) * prof.HopLatency
			if rt.Hops != hops || rt.FabricLatency != lat ||
				rt.RendezvousExtra != 2*(2*prof.PerSideOverhead+lat) {
				t.Fatalf("%s -> %s: cached hops %d lat %v rdv %v, derived hops %d lat %v",
					src, dst, rt.Hops, rt.FabricLatency, rt.RendezvousExtra, hops, lat)
			}
			if len(rt.Links) != len(want) {
				t.Fatalf("%s -> %s: %d admission links, derived %d", src, dst, len(rt.Links), len(want))
			}
			for i, id := range rt.Links {
				if got := net.Link(id); got != want[i] {
					t.Fatalf("%s -> %s: admission link %d is %v, derived %v", src, dst, i, got, want[i])
				}
			}
		}
	}
}

// TestRouteCacheMatchesFabricRoutes is the route cache's differential
// test: on every topology, each (cache row, destination) entry agrees
// with a from-scratch derivation from fabric.Route — hop count, latency
// terms and the admission links in acquisition order — before and after
// Net.Reset, and a congestion-off net derives the same timing with an
// empty admission set.
func TestRouteCacheMatchesFabricRoutes(t *testing.T) {
	prof := ib.OpenMPI()
	for _, name := range fabric.Topologies() {
		name := name
		t.Run(name, func(t *testing.T) {
			fab := topoSystem(t, name, 2)
			eng := sim.NewEngine()
			defer eng.Close()
			net := New(eng, fab, prof, Congested())
			checkRouteCache(t, fab, net, prof)
			eng.Reset()
			net.Reset()
			checkRouteCache(t, fab, net, prof)

			off := New(eng, fab, prof, Policy{})
			for _, src := range rowSources(fab) {
				for g := 0; g < fab.Nodes(); g += 7 {
					dst := fabric.FromGlobal(g)
					if dst == src {
						continue
					}
					rt, on := off.Route(src, dst), net.Route(src, dst)
					if len(rt.Links) != 0 || rt.Hops != on.Hops ||
						rt.FabricLatency != on.FabricLatency || rt.RendezvousExtra != on.RendezvousExtra {
						t.Fatalf("%s -> %s: congestion-off route %+v, congested timing %+v", src, dst, rt, on)
					}
				}
			}
			if off.LinkCount() != 0 {
				t.Errorf("congestion-off net assigned %d link ids", off.LinkCount())
			}
		})
	}
}

// BenchmarkRouteCacheFullMachine derives the whole full-machine
// fat-tree route table — every one of the 408 line-crossbar rows toward
// every one of the 3,060 nodes — on a fresh congested Net per
// iteration. B/op is the table's footprint: what each warm evaluator,
// surrogate clone and collective run pays once its routes are warm.
func BenchmarkRouteCacheFullMachine(b *testing.B) {
	fab := fabric.New()
	srcs := rowSources(fab)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		net := New(eng, fab, ib.OpenMPI(), Congested())
		for _, src := range srcs {
			for g := 0; g < fab.Nodes(); g++ {
				if dst := fabric.FromGlobal(g); dst != src {
					net.xpath(src, dst)
				}
			}
		}
		eng.Close()
	}
}
