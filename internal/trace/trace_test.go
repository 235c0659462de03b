package trace

import (
	"strings"
	"testing"

	"roadrunner/internal/fabric"
	"roadrunner/internal/ib"
	"roadrunner/internal/transport"
	"roadrunner/internal/units"
)

// pingPong builds a tiny valid two-rank trace through the recorder:
// rank 0 computes and sends, rank 1 receives, computes, and replies.
func pingPong(t *testing.T) *Trace {
	t.Helper()
	rec := NewRecorder("ping-pong", "test", 2)
	rec.Compute(0, 5*units.Microsecond, 5*units.Microsecond)
	rec.Send(0, 1, 7, 4*units.KB, 6*units.Microsecond)
	rec.Recv(0, 1, 8, 4*units.KB, 20*units.Microsecond)
	rec.Recv(1, 0, 7, 4*units.KB, 10*units.Microsecond)
	rec.Compute(1, 5*units.Microsecond, 15*units.Microsecond)
	rec.Send(1, 0, 8, 4*units.KB, 16*units.Microsecond)
	tr, err := rec.Trace()
	if err != nil {
		t.Fatalf("recorder: %v", err)
	}
	return tr
}

func TestRecorderResolvesDeps(t *testing.T) {
	tr := pingPong(t)
	if len(tr.Records) != 6 {
		t.Fatalf("got %d records", len(tr.Records))
	}
	// Canonical order: rank 0's stream then rank 1's.
	wantKinds := []Kind{KindCompute, KindSend, KindRecv, KindRecv, KindCompute, KindSend}
	for i, r := range tr.Records {
		if r.Kind != wantKinds[i] {
			t.Errorf("record %d kind %s, want %s", i, r.Kind, wantKinds[i])
		}
	}
	// rank0's recv (seq 2) depends on rank1's send (seq 2); rank1's recv
	// (seq 0) depends on rank0's send (seq 1).
	if got := tr.Records[2].Dep; got != 2 {
		t.Errorf("rank0 recv dep %d, want 2", got)
	}
	if got := tr.Records[3].Dep; got != 1 {
		t.Errorf("rank1 recv dep %d, want 1", got)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
}

func TestStats(t *testing.T) {
	tr := pingPong(t)
	s := tr.Stats()
	if s.Ranks != 2 || s.Records != 6 || s.Sends != 2 || s.Recvs != 2 || s.Computes != 2 {
		t.Fatalf("stats %+v", s)
	}
	if s.Bytes != 8*units.KB {
		t.Errorf("bytes %v", s.Bytes)
	}
	if s.ComputeTime != 10*units.Microsecond {
		t.Errorf("compute time %v", s.ComputeTime)
	}
	if s.Span != 20*units.Microsecond {
		t.Errorf("span %v", s.Span)
	}
}

// mutate clones the ping-pong trace and applies f to the clone.
func mutate(t *testing.T, f func(*Trace)) *Trace {
	t.Helper()
	tr := pingPong(t)
	cp := &Trace{Meta: tr.Meta, Records: append([]Record(nil), tr.Records...)}
	f(cp)
	return cp
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Trace)
		want string
	}{
		{"zero ranks", func(tr *Trace) { tr.Meta.Ranks = 0 }, "ranks"},
		// A crafted header must not make Validate allocate per-rank
		// state for absurd counts (or overflow make into a panic).
		{"absurd rank count", func(tr *Trace) { tr.Meta.Ranks = 1 << 62 }, "format bound"},
		{"rank out of range", func(tr *Trace) { tr.Records[0].Rank = 5 }, "outside"},
		{"seq gap", func(tr *Trace) { tr.Records[2].Seq = 7 }, "dense"},
		{"duplicate seq", func(tr *Trace) { tr.Records[2].Seq = 1 }, "dense"},
		{"unknown kind", func(tr *Trace) { tr.Records[0].Kind = "warp" }, "unknown kind"},
		{"negative size", func(tr *Trace) { tr.Records[1].Size = -1 }, "negative size"},
		{"negative duration", func(tr *Trace) { tr.Records[0].Duration = -1 }, "negative duration"},
		// The format bounds keep a replay's int64-picosecond clock from
		// overflowing (which would panic the engine instead of erroring).
		{"oversize message", func(tr *Trace) {
			tr.Records[1].Size = MaxMessageSize + 1
			tr.Records[3].Size = MaxMessageSize + 1
		}, "format bound"},
		{"oversize compute", func(tr *Trace) { tr.Records[0].Duration = MaxComputeDuration + 1 }, "format bound"},
		{"negative timestamp", func(tr *Trace) { tr.Records[0].At = -1 }, "negative timestamp"},
		{"negative tag", func(tr *Trace) { tr.Records[1].Tag = -1 }, "negative tag"},
		{"compute with peer", func(tr *Trace) { tr.Records[0].Peer = 1 }, "message fields"},
		{"send with dep", func(tr *Trace) { tr.Records[1].Dep = 0 }, "dep set"},
		{"send peer out of range", func(tr *Trace) { tr.Records[1].Peer = 9 }, "peer outside"},
		{"recv without dep", func(tr *Trace) { tr.Records[3].Dep = NoDep }, "without dep"},
		{"orphan recv", func(tr *Trace) { tr.Records[3].Tag = 99 }, "sends"},
		{"unmatched send", func(tr *Trace) { tr.Records[1].Tag = 99 }, "recvs"},
		{"size mismatch", func(tr *Trace) { tr.Records[3].Size = 1 }, "matching send carries"},
		{"wrong dep seq", func(tr *Trace) { tr.Records[3].Dep = 0 }, "FIFO"},
	}
	// Every consumer of a trace literal checks it in full: none may
	// trust a match the literal does not carry.
	fab := fabric.NewScaled(1)
	consumers := []struct {
		name string
		use  func(*Trace) error
	}{
		{"Validate", (*Trace).Validate},
		{"NewEvaluator", func(tr *Trace) error {
			ev, err := NewEvaluator(tr, ReplayConfig{Fabric: fab, Profile: ib.OpenMPI(), Policy: transport.Congested()})
			if err == nil {
				ev.Close()
			}
			return err
		}},
		{"Traffic", func(tr *Trace) error {
			_, err := tr.Traffic(ib.OpenMPI().EagerThreshold)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, c := range consumers {
				t.Run(c.name, func(t *testing.T) {
					err := c.use(mutate(t, tc.mut))
					if err == nil {
						t.Fatal("invalid trace accepted")
					}
					if !strings.Contains(err.Error(), tc.want) {
						t.Errorf("error %q does not mention %q", err, tc.want)
					}
				})
			}
		})
	}
}

// TestValidateErrorDeterministic pins the error of a trace with many
// faults: every call names the lowest offending record in canonical
// order, never whichever channel a map iteration meets first.
func TestValidateErrorDeterministic(t *testing.T) {
	// Rank 0's first record is an orphan recv; every other message
	// record is an unmatched send or an orphan recv on its own channel.
	tr := &Trace{
		Meta: Meta{Name: "faults", App: "test", Ranks: 4},
		Records: []Record{
			{Rank: 0, Seq: 0, Kind: KindRecv, Peer: 1, Tag: 5, Size: 8, Dep: 0},
			{Rank: 0, Seq: 1, Kind: KindSend, Peer: 1, Tag: 1, Size: 8, Dep: NoDep},
			{Rank: 1, Seq: 0, Kind: KindSend, Peer: 2, Tag: 2, Size: 8, Dep: NoDep},
			{Rank: 2, Seq: 0, Kind: KindRecv, Peer: 3, Tag: 3, Size: 8, Dep: 0},
			{Rank: 3, Seq: 0, Kind: KindSend, Peer: 0, Tag: 4, Size: 8, Dep: NoDep},
		},
	}
	want := tr.Validate()
	if want == nil {
		t.Fatal("multi-fault trace accepted")
	}
	if !strings.Contains(want.Error(), tr.Records[0].String()) {
		t.Errorf("error %q does not name the lowest offending record %v", want, tr.Records[0])
	}
	for i := 0; i < 200; i++ {
		if err := tr.Validate(); err.Error() != want.Error() {
			t.Fatalf("call %d: error %q, first call said %q", i, err, want)
		}
	}
}

func TestValidateDetectsCycle(t *testing.T) {
	// rank0: recv from 1 then send to 1; rank1: recv from 0 then send to
	// 0 — each waits on the other's send, a true deadlock cycle even
	// though every record is well-formed and every channel is matched.
	tr := &Trace{
		Meta: Meta{Name: "cycle", App: "test", Ranks: 2},
		Records: []Record{
			{Rank: 0, Seq: 0, Kind: KindRecv, Peer: 1, Tag: 1, Size: 8, Dep: 1},
			{Rank: 0, Seq: 1, Kind: KindSend, Peer: 1, Tag: 0, Size: 8, Dep: NoDep},
			{Rank: 1, Seq: 0, Kind: KindRecv, Peer: 0, Tag: 0, Size: 8, Dep: 1},
			{Rank: 1, Seq: 1, Kind: KindSend, Peer: 0, Tag: 1, Size: 8, Dep: NoDep},
		},
	}
	err := tr.Validate()
	if err == nil {
		t.Fatal("cyclic trace accepted")
	}
	if !strings.Contains(err.Error(), "cycle") {
		t.Errorf("error %q does not mention the cycle", err)
	}
}

func TestNormalizeSorts(t *testing.T) {
	tr := pingPong(t)
	// Reverse the canonical order; Normalize must restore it.
	for i, j := 0, len(tr.Records)-1; i < j; i, j = i+1, j-1 {
		tr.Records[i], tr.Records[j] = tr.Records[j], tr.Records[i]
	}
	tr.Normalize()
	if err := tr.Validate(); err != nil {
		t.Fatalf("normalized trace invalid: %v", err)
	}
}

func TestSelfSendAllowed(t *testing.T) {
	// A rank sending to itself (send before recv in its own program
	// order) is legal: the payload is delivered asynchronously.
	rec := NewRecorder("self", "test", 1)
	rec.Send(0, 0, 3, 64, 0)
	rec.Recv(0, 0, 3, 64, 1)
	tr, err := rec.Trace()
	if err != nil {
		t.Fatalf("recorder: %v", err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("self-send trace rejected: %v", err)
	}
	// The reverse order — recv first — is a self-deadlock.
	bad := &Trace{
		Meta: Meta{Name: "self-deadlock", App: "test", Ranks: 1},
		Records: []Record{
			{Rank: 0, Seq: 0, Kind: KindRecv, Peer: 0, Tag: 3, Size: 64, Dep: 1},
			{Rank: 0, Seq: 1, Kind: KindSend, Peer: 0, Tag: 3, Size: 64, Dep: NoDep},
		},
	}
	if err := bad.Validate(); err == nil {
		t.Fatal("self-deadlocking trace accepted")
	}
}
