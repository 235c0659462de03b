package main

import (
	"path/filepath"
	"testing"

	"roadrunner/internal/fabric"
)

// TestPlacementFlagsNeverPanic runs the subcommands with out-of-domain
// placement flags: each must exit 2 with a message, never panic inside
// the placement generators.
func TestPlacementFlagsNeverPanic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.jsonl")
	if code := capture([]string{"-px", "2", "-py", "2", "-i", "2", "-j", "2", "-k", "4", "-mk", "2", "-angles", "2", "-o", path}); code != 0 {
		t.Fatalf("capture exited %d", code)
	}
	cases := []struct {
		name string
		run  func([]string) int
		args []string
		want int
	}{
		{"replay strided stride 0", replay, []string{"-placement", "strided", "-stride", "0"}, 2},
		{"replay packed per-node 5", replay, []string{"-placement", "packed", "-per-node", "5"}, 2},
		{"replay block core 7", replay, []string{"-placement", "block", "-core", "7"}, 2},
		{"replay block core -1", replay, []string{"-core", "-1"}, 2},
		{"replay all per-node 0", replay, []string{"-placement", "all", "-per-node", "0"}, 2},
		{"replay all stride -3", replay, []string{"-placement", "all", "-stride", "-3"}, 2},
		{"replay unknown placement", replay, []string{"-placement", "diagonal"}, 2},
		{"replay packed per-node 2", replay, []string{"-placement", "packed", "-per-node", "2", "-skip-compute"}, 0},
		{"optimize per-node 0", optimize, []string{"-per-node", "0"}, 2},
		{"optimize stride 0", optimize, []string{"-stride", "0"}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			if code := tc.run(append([]string{"-i", path}, tc.args...)); code != tc.want {
				t.Errorf("exit %d, want %d", code, tc.want)
			}
		})
	}
}

// TestBaselinesCheckRankCount: a trace with more ranks than a placement
// can seat on the fabric is refused, per placement kind.
func TestBaselinesCheckRankCount(t *testing.T) {
	fab := fabric.NewScaled(1) // 180 nodes
	cases := []struct {
		kind    string
		ranks   int
		wantErr bool
	}{
		{"block", 180, false},
		{"block", 181, true},
		{"strided", 200, true},
		{"packed", 200, false}, // 50 nodes at 4 per node
		{"packed", 721, true},
	}
	for _, tc := range cases {
		places, err := baselines(fab, tc.ranks, 17, 4, 1, tc.kind)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s at %d ranks: err %v, want error %v", tc.kind, tc.ranks, err, tc.wantErr)
		}
		if err == nil && len(places[0]) != tc.ranks {
			t.Errorf("%s at %d ranks: %d places", tc.kind, tc.ranks, len(places[0]))
		}
	}
}
