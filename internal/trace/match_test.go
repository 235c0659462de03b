package trace

import (
	"bytes"
	"strings"
	"testing"

	"roadrunner/internal/fabric"
	"roadrunner/internal/ib"
	"roadrunner/internal/transport"
	"roadrunner/internal/units"
)

// TestDecodedAndCapturedTracesCarryOneMatch pins the validate-once
// contract: a trace from Recorder.Trace or Decode carries its validated
// match, and NewEvaluator, Traffic and a pool checkout all reuse that
// very match instead of checking the trace again. A literal holding the
// same records carries none, so each consumer builds its own.
func TestDecodedAndCapturedTracesCarryOneMatch(t *testing.T) {
	captured := meshTrace(t, 8, 4*units.KB)
	decoded := reDecode(t, captured)
	cfg := ReplayConfig{Fabric: fabric.NewScaled(1), Profile: ib.OpenMPI(), Policy: transport.Congested()}
	for _, tc := range []struct {
		name string
		tr   *Trace
	}{{"captured", captured}, {"decoded", decoded}} {
		t.Run(tc.name, func(t *testing.T) {
			tr := tc.tr
			if tr.m == nil {
				t.Fatal("trace carries no match")
			}
			ev, err := NewEvaluator(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer ev.Close()
			if ev.m != tr.m {
				t.Error("NewEvaluator built a second match")
			}
			mat, err := tr.Traffic(ib.OpenMPI().EagerThreshold)
			if err != nil {
				t.Fatal(err)
			}
			if mat.m != tr.m {
				t.Error("Traffic built a second match")
			}
			pool, err := NewEvaluatorPool(tr, cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()
			first, err := pool.Get()
			if err != nil {
				t.Fatal(err)
			}
			cold, err := pool.Get() // the free list is empty: built fresh
			if err != nil {
				t.Fatal(err)
			}
			if first.m != tr.m || cold.m != tr.m {
				t.Error("a pool checkout built a second match")
			}
			pool.Put(first)
			pool.Put(cold)

			lit := &Trace{Meta: tr.Meta, Records: tr.Records}
			lev, err := NewEvaluator(lit, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer lev.Close()
			if lev.m == tr.m || lev.m == nil {
				t.Error("a literal reused a match it does not carry")
			}
		})
	}
}

// reDecode round-trips a trace through the codec.
func reDecode(t *testing.T, tr *Trace) *Trace {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	out, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStoredMatchEqualsFreshMatch: the match capture and Decode store
// is exactly the one a full validation of the same records builds.
func TestStoredMatchEqualsFreshMatch(t *testing.T) {
	captured := meshTrace(t, 8, 4*units.KB)
	for _, tr := range []*Trace{captured, reDecode(t, captured)} {
		fresh, err := newMatch(&Trace{Meta: tr.Meta, Records: tr.Records}, true)
		if err != nil {
			t.Fatal(err)
		}
		for i := range tr.Records {
			if fresh.peer[i] != tr.m.peer[i] || fresh.order[i] != tr.m.order[i] {
				t.Fatalf("record %d: stored match (peer %d, order %d) differs from fresh (peer %d, order %d)",
					i, tr.m.peer[i], tr.m.order[i], fresh.peer[i], fresh.order[i])
			}
		}
	}
}

// TestEditedCopyRevalidated: a value copy of a decoded trace with its
// Records replaced, or its rank count changed, no longer agrees with
// the stored match, so each consumer validates it in full and rejects
// an invalid one.
func TestEditedCopyRevalidated(t *testing.T) {
	tr := reDecode(t, pingPong(t))
	cfg := ReplayConfig{Fabric: fabric.NewScaled(1), Profile: ib.OpenMPI(), Policy: transport.Congested()}

	swapped := *tr
	swapped.Records = append([]Record(nil), tr.Records...)
	swapped.Records[3].Tag = 99 // orphan recv, unmatched send
	if _, err := NewEvaluator(&swapped, cfg); err == nil || !strings.Contains(err.Error(), "no matching") {
		t.Errorf("swapped-records copy: NewEvaluator error %v, want a matching error", err)
	}
	if _, err := swapped.Traffic(ib.OpenMPI().EagerThreshold); err == nil {
		t.Error("swapped-records copy: Traffic accepted it")
	}

	shortened := *tr
	shortened.Records = tr.Records[:5] // same backing array, one record fewer
	if _, err := NewEvaluator(&shortened, cfg); err == nil {
		t.Error("truncated copy: NewEvaluator accepted it")
	}

	zeroRanks := *tr
	zeroRanks.Meta.Ranks = 0
	if _, err := NewEvaluator(&zeroRanks, cfg); err == nil {
		t.Error("zero-rank copy: NewEvaluator accepted it")
	}

	// A wider rank count is still a valid trace (the extra ranks are
	// idle), but not the one the stored match was built for.
	widened := *tr
	widened.Meta.Ranks = 3
	wev, err := NewEvaluator(&widened, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer wev.Close()
	if wev.m == tr.m {
		t.Error("widened copy reused the stored match")
	}

	// An unedited value copy keeps trusting the stored match.
	same := *tr
	ev, err := NewEvaluator(&same, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ev.Close()
	if ev.m != tr.m {
		t.Error("unedited copy built a second match")
	}
}
