package collectives

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"testing"

	"roadrunner/internal/fabric"
	"roadrunner/internal/ib"
	"roadrunner/internal/transport"
	"roadrunner/internal/units"
)

var update = flag.Bool("update", false, "rewrite the golden collective results")

// goldenPath pins every algorithm's timing, traffic, engine counters and
// link census across congestion policies, placements, sizes and rank
// counts. The file was generated once from the blocking send-then-recv
// implementation; an optimisation of the DES or transport hot path that
// keeps results byte-identical leaves it untouched, so any diff here is
// a change of simulated behaviour, not of speed.
const goldenPath = "testdata/golden_results.txt"

// goldenRuns enumerates the pinned grid: every op × {congestion off,
// infinite capacity, congested} × {block, strided, packed-4} × {0 B,
// 8 B, 64 KB} at 7, 16 and 190 ranks, all on a 2-CU fabric. 190 is a
// non-power-of-two count whose block placement spans both CUs; the
// stride-17 placement spreads every count across them.
func goldenRuns() ([]string, []Request) {
	fab := fabric.NewScaled(2)
	policies := []struct {
		name string
		pol  transport.Policy
	}{
		{"off", transport.Policy{}},
		{"infinite", transport.InfiniteCapacity()},
		{"congested", transport.Congested()},
	}
	var keys []string
	var reqs []Request
	for _, op := range Ops() {
		for _, pol := range policies {
			for _, ranks := range []int{7, 16, 190} {
				placements := []struct {
					name   string
					places []Placement
				}{
					{"block", BlockPlacement(fab, ranks, 1)},
					{"strided", StridedPlacement(fab, ranks, 17, 1)},
					{"packed-4", PackedPlacement(fab, ranks, 4)},
				}
				for _, pl := range placements {
					for _, size := range []units.Size{0, 8, 64 * units.KB} {
						keys = append(keys, fmt.Sprintf("%s %s %s ranks=%d size=%d", op, pol.name, pl.name, ranks, size))
						reqs = append(reqs, Request{
							Cfg:  Config{Fabric: fab, Profile: ib.OpenMPI(), Places: pl.places, Congestion: pol.pol},
							Op:   op,
							Size: size,
						})
					}
				}
			}
		}
	}
	return keys, reqs
}

// goldenLine renders the pinned fields of one result.
func goldenLine(key string, r *Result) string {
	s := fmt.Sprintf("%s: time=%d min=%d msgs=%d wire=%d dispatched=%d peak=%d",
		key, r.Time, r.MinTime, r.Messages, r.WireBytes,
		r.EngineStats.Dispatched, r.EngineStats.CalendarPeak)
	if c := r.Congestion; c != nil {
		s += fmt.Sprintf(" links=%d queued=%d wait=%d held=%d upq=%d upwait=%d",
			c.Links, c.Queued, c.TotalWait, c.PeakHeld, c.UplinkQueued, c.UplinkWait)
	}
	return s + "\n"
}

func TestGoldenResults(t *testing.T) {
	keys, reqs := goldenRuns()
	results, err := RunMany(reqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for i, r := range results {
		buf.WriteString(goldenLine(keys[i], r))
	}
	if *update {
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d runs)", goldenPath, len(results))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	got := buf.Bytes()
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	diffs := 0
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			if diffs++; diffs <= 10 {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
			}
		}
	}
	t.Errorf("%d line(s) drifted from %s", diffs, goldenPath)
}
