package trace

import (
	"bytes"
	"strings"
	"testing"

	"roadrunner/internal/fabric"
	"roadrunner/internal/ib"
	"roadrunner/internal/transport"
)

// FuzzDecode feeds arbitrary bytes through the full parse→validate→
// replay pipeline. The contract under test: malformed input returns an
// error — it never panics, and whatever Decode accepts has a traffic
// matrix that agrees with its stats and replays without deadlocking
// the engine (Validate's acyclicity check is exactly the no-deadlock
// guarantee). Additional seed corpus entries live in
// testdata/fuzz/FuzzDecode.
func FuzzDecode(f *testing.F) {
	valid := func(tr *Trace) []byte {
		var buf bytes.Buffer
		if err := Encode(&buf, tr); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	rec := NewRecorder("seed", "fuzz", 2)
	rec.Compute(0, 5, 5)
	rec.Send(0, 1, 3, 64, 6)
	rec.Recv(1, 0, 3, 64, 9)
	tr, err := rec.Trace()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid(tr))

	lines := strings.SplitAfter(string(valid(tr)), "\n")
	f.Add([]byte(strings.Join(lines[:len(lines)-2], ""))) // truncated
	f.Add([]byte(lines[0]))                               // header only
	f.Add([]byte("not json\n"))
	f.Add([]byte(`{"format":"roadrunner-trace","version":1,"name":"x","app":"y","ranks":2,"records":1}` + "\n" +
		`{"rank":0,"seq":0,"kind":"recv","peer":1,"tag":0,"size":8,"dur":0,"at":0,"dep":0}` + "\n")) // orphan recv
	f.Add([]byte(`{"format":"roadrunner-trace","version":1,"name":"x","app":"y","ranks":1,"records":1}` + "\n" +
		`{"rank":0,"seq":0,"kind":"compute","peer":-1,"tag":0,"size":0,"dur":-5,"at":0,"dep":-1}` + "\n")) // negative duration
	f.Add([]byte(`{"format":"roadrunner-trace","version":1,"name":"x","app":"y","ranks":4611686018427387904,"records":0}` + "\n")) // absurd rank count

	fab := fabric.NewScaled(1)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode(bytes.NewReader(data))
		if err != nil {
			return // malformed input must error, and did
		}
		// The traffic matrix reads the match Decode stored: it must
		// exist for every accepted trace and agree with the record tally.
		mat, err := tr.Traffic(ib.OpenMPI().EagerThreshold)
		if err != nil {
			t.Fatalf("validated trace has no traffic matrix: %v", err)
		}
		st := tr.Stats()
		if mat.Msgs != int64(st.Sends) || mat.Bytes != st.Bytes || mat.CritMsgs > mat.Msgs {
			t.Fatalf("traffic matrix msgs %d bytes %v crit %d disagrees with stats sends %d bytes %v",
				mat.Msgs, mat.Bytes, mat.CritMsgs, st.Sends, st.Bytes)
		}
		// Decode re-validated everything; a replay must therefore finish
		// (the engine detects any residual blocking as a DeadlockError,
		// which would mean Validate's acyclicity guarantee is broken).
		if tr.Meta.Ranks > 64 || len(tr.Records) > 4096 {
			return // keep the fuzz loop fast; replay size is not the contract
		}
		places := make([]transport.Endpoint, tr.Meta.Ranks)
		for i := range places {
			places[i] = transport.Endpoint{Node: fabric.FromGlobal(i % fab.Nodes()), Core: i % 4}
		}
		res, err := Replay(tr, ReplayConfig{
			Fabric:  fab,
			Profile: ib.OpenMPI(),
			Places:  places,
			Policy:  transport.Congested(),
		})
		if err != nil {
			t.Fatalf("validated trace failed to replay: %v", err)
		}
		if res == nil || len(res.RankFinish) != tr.Meta.Ranks {
			t.Fatalf("replay result malformed: %+v", res)
		}
	})
}
