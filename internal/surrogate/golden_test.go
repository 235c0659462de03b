package surrogate_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"roadrunner/internal/cml"
	"roadrunner/internal/fabric"
	"roadrunner/internal/ib"
	"roadrunner/internal/scenario"
	"roadrunner/internal/surrogate"
	"roadrunner/internal/sweep3d"
	"roadrunner/internal/trace"
	"roadrunner/internal/transport"
)

var update = flag.Bool("update", false, "rewrite the golden compile file")

// goldenCompilePath pins everything the surrogate derives from a trace
// before any placement enters: the traffic matrix of three Sweep3D
// captures, and the uncalibrated features and price of each under the
// three baseline placements on every topology and both routed
// congestion policies. A change to trace matching, the critical-chain
// DP or the surrogate's compile shows up as a diff against this file.
const goldenCompilePath = "testdata/golden_compile.txt"

// goldenCompileTraces returns the pinned traces: the checked-in 2x2
// golden capture, the facility's 4x4 capture and the trace-replay 8x8
// capture.
func goldenCompileTraces(t *testing.T) []*trace.Trace {
	t.Helper()
	golden, err := trace.Load("../trace/testdata/sweep3d_2x2.trace.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	_, t4, err := sweep3d.CaptureDES(scenario.FacilityTraceGrid, scenario.FacilityTracePx, scenario.FacilityTracePy, cml.CurrentSoftware())
	if err != nil {
		t.Fatal(err)
	}
	return []*trace.Trace{golden, t4, testTrace(t)}
}

// writeMatrix prints every TrafficMatrix field, integers exact.
func writeMatrix(w *bytes.Buffer, m *trace.TrafficMatrix) {
	fmt.Fprintf(w, "matrix ranks=%d msgs=%d rdv=%d bytes=%d crit_msgs=%d crit_rdv=%d crit_bytes=%d crit_compute=%d max_rank_compute=%d\n",
		m.Ranks, m.Msgs, m.Rendezvous, int64(m.Bytes), m.CritMsgs, m.CritRdv, int64(m.CritBytes),
		int64(m.CritCompute), int64(m.MaxRankCompute))
	w.WriteString("rank_compute")
	for _, c := range m.RankCompute {
		fmt.Fprintf(w, " %d", int64(c))
	}
	w.WriteByte('\n')
	for _, p := range m.Pairs {
		fmt.Fprintf(w, "pair %d->%d msgs=%d rdv=%d bytes=%d crit=%d/%d/%d path=%d/%d/%d\n",
			p.Src, p.Dst, p.Msgs, p.Rendezvous, int64(p.Bytes),
			p.CritMsgs, p.CritRdv, int64(p.CritBytes), p.PathMsgs, p.PathRdv, int64(p.PathBytes))
	}
}

// TestGoldenCompile pins the traffic matrix and the uncalibrated
// features and price byte for byte. Floats print in their shortest
// exact form, so any drift in the last bit is a diff.
func TestGoldenCompile(t *testing.T) {
	prof := ib.OpenMPI()
	policies := []struct {
		name string
		pol  transport.Policy
	}{
		{"congested", transport.Congested()},
		{"infinite", transport.InfiniteCapacity()},
	}
	placementNames := []string{"block", "strided", "packed"}
	var buf bytes.Buffer
	for _, tr := range goldenCompileTraces(t) {
		fmt.Fprintf(&buf, "trace %s ranks=%d records=%d\n", tr.Meta.Name, tr.Meta.Ranks, len(tr.Records))
		mat, err := tr.Traffic(prof.EagerThreshold)
		if err != nil {
			t.Fatal(err)
		}
		writeMatrix(&buf, mat)
		for _, topo := range fabric.Topologies() {
			fab, err := fabric.NewTopology(topo)
			if err != nil {
				t.Fatal(err)
			}
			bases := basePlacements(fab, tr.Meta.Ranks)
			for _, p := range policies {
				m, err := surrogate.NewReplay(tr, trace.ReplayConfig{Fabric: fab, Profile: prof, Policy: p.pol})
				if err != nil {
					t.Fatal(err)
				}
				for i, places := range bases {
					fmt.Fprintf(&buf, "price %s %s %s features=", topo, p.name, placementNames[i])
					for j, f := range m.Features(places) {
						if j > 0 {
							buf.WriteByte(',')
						}
						buf.WriteString(strconv.FormatFloat(f, 'g', -1, 64))
					}
					fmt.Fprintf(&buf, " price=%d\n", int64(m.Price(places)))
				}
				m.Close()
			}
		}
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenCompilePath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenCompilePath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenCompilePath, buf.Len())
		return
	}
	want, err := os.ReadFile(goldenCompilePath)
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("traffic matrix or surrogate compile drifted from %s (%d vs %d bytes)",
			goldenCompilePath, buf.Len(), len(want))
	}
}
