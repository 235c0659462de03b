package collectives

import (
	"reflect"
	"strings"
	"testing"

	"roadrunner/internal/fabric"
	"roadrunner/internal/ib"
	"roadrunner/internal/transport"
	"roadrunner/internal/units"
)

// TestRunManyMatchesSerialRuns pins the independent-runs executor: at
// 1, 2 and 4 workers and at the GOMAXPROCS default (0), RunMany returns
// exactly the Results a serial loop of Run calls produces, in request
// order, for every op under both the infinite-capacity and the
// congested policy.
func TestRunManyMatchesSerialRuns(t *testing.T) {
	// One single-crossbar communicator and one strided across two CUs,
	// so half the runs route over the inter-CU uplinks.
	fab := fabric.NewScaled(2)
	comms := [][]Placement{
		BlockPlacement(fab, 16, 1),
		StridedPlacement(fab, 24, 15, 1),
	}
	var reqs []Request
	for _, op := range Ops() {
		for _, places := range comms {
			for _, pol := range []transport.Policy{transport.InfiniteCapacity(), transport.Congested()} {
				cfg := Config{Fabric: fab, Profile: ib.OpenMPI(), Places: places, Congestion: pol}
				reqs = append(reqs, Request{Cfg: cfg, Op: op, Size: 16 * units.KB})
			}
		}
	}
	want := make([]*Result, len(reqs))
	for i, rq := range reqs {
		r, err := Run(rq.Cfg, rq.Op, rq.Size)
		if err != nil {
			t.Fatalf("serial run %d (%s): %v", i, rq.Op, err)
		}
		want[i] = r
	}
	for _, workers := range []int{1, 2, 4, 0} {
		got, err := RunMany(reqs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results for %d requests", workers, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("workers=%d request %d (%s): pooled result differs from serial Run\n  pooled: %+v\n  serial: %+v",
					workers, i, reqs[i].Op, got[i], want[i])
			}
		}
	}
}

// TestRunManyRejectsBadInput covers the executor's error paths: an
// empty request list fails, and a bad request fails with its index —
// with two bad requests, the lower index at every worker count.
func TestRunManyRejectsBadInput(t *testing.T) {
	if _, err := RunMany(nil, 2); err == nil {
		t.Error("no requests accepted")
	}
	good := Request{Cfg: testConfig(8), Op: BcastBinomial, Size: units.KB}
	badRoot := good
	badRoot.Cfg.Root = 99
	badOp := good
	badOp.Op = "no-such-op"
	reqs := []Request{good, good, good, badRoot, good, badOp, good}
	for _, workers := range []int{1, 2, 4, 0} {
		_, err := RunMany(reqs, workers)
		if err == nil || !strings.Contains(err.Error(), "request 3:") || !strings.Contains(err.Error(), "root 99") {
			t.Errorf("workers=%d: error %v, want request 3's bad root", workers, err)
		}
	}
}
