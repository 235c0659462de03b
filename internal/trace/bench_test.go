package trace_test

import (
	"bytes"
	"sync"
	"testing"

	"roadrunner/internal/cml"
	"roadrunner/internal/fabric"
	"roadrunner/internal/ib"
	"roadrunner/internal/sweep3d"
	"roadrunner/internal/trace"
	"roadrunner/internal/transport"
)

// The TraceReplay* benches track the replay engine's hot path — record
// walking, mailbox matching and the congested transport underneath —
// plus the capture and codec costs, as part of the bench-artifact record
// CI uploads per commit.

var benchOnce = sync.OnceValues(func() (*trace.Trace, error) {
	cfg := sweep3d.Config{I: 5, J: 5, K: 40, MK: 10, Angles: 6}
	_, tr, err := sweep3d.CaptureDES(cfg, 8, 8, cml.CurrentSoftware())
	return tr, err
})

func benchTrace(b *testing.B) *trace.Trace {
	b.Helper()
	tr, err := benchOnce()
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

func benchPlaces(tr *trace.Trace) []transport.Endpoint {
	places := make([]transport.Endpoint, tr.Meta.Ranks)
	for i := range places {
		places[i] = transport.Endpoint{Node: fabric.FromGlobal(i), Core: 1}
	}
	return places
}

func benchReplay(b *testing.B, pol transport.Policy) {
	tr := benchTrace(b)
	cfg := trace.ReplayConfig{Fabric: fabric.New(), Profile: ib.OpenMPI(),
		Places: benchPlaces(tr), Policy: pol, Observe: trace.ObserveAll}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.Replay(tr, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// The one-shot replays (validate + build + run + observers per call),
// against which the Evaluator benches below measure the pooling win.
func BenchmarkTraceReplayCongested(b *testing.B) { benchReplay(b, transport.Congested()) }

func BenchmarkTraceReplayBaseline(b *testing.B) { benchReplay(b, transport.Policy{}) }

func benchEvaluator(b *testing.B, obs trace.Observe) {
	tr := benchTrace(b)
	ev, err := trace.NewEvaluator(tr, trace.ReplayConfig{
		Fabric: fabric.New(), Profile: ib.OpenMPI(),
		Policy: transport.Congested(), Observe: obs,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer ev.Close()
	places := benchPlaces(tr)
	if _, err := ev.Evaluate(places); err != nil { // warm the pooled state
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Evaluate(places); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluatorReplayCongested is the pooled path with full
// observers: what a reporting sweep pays per placement.
func BenchmarkEvaluatorReplayCongested(b *testing.B) { benchEvaluator(b, trace.ObserveAll) }

// BenchmarkEvaluatorReplayMakespanOnly is the optimizer's inner loop:
// pooled, congested, no observers — compare side by side with
// BenchmarkTraceReplayCongested for the per-evaluation amortization.
func BenchmarkEvaluatorReplayMakespanOnly(b *testing.B) { benchEvaluator(b, 0) }

func BenchmarkTraceReplayCapture(b *testing.B) {
	cfg := sweep3d.Config{I: 5, J: 5, K: 40, MK: 10, Angles: 6}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := sweep3d.CaptureDES(cfg, 8, 8, cml.CurrentSoftware()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceReplayCodec(b *testing.B) {
	tr := benchTrace(b)
	var buf bytes.Buffer
	if err := trace.Encode(&buf, tr); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.Decode(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluatorNew is the per-evaluator setup on a decoded or
// captured trace: the op compile, engine, mailboxes, delivery events
// and walker procs. A pool pays it once per warm evaluator.
func BenchmarkEvaluatorNew(b *testing.B) {
	tr := benchTrace(b)
	cfg := trace.ReplayConfig{Fabric: fabric.New(), Profile: ib.OpenMPI(), Policy: transport.Congested()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev, err := trace.NewEvaluator(tr, cfg)
		if err != nil {
			b.Fatal(err)
		}
		ev.Close()
	}
}

// BenchmarkTraceTraffic is the placement-independent traffic matrix:
// pair totals and the critical-chain DP over the trace's DAG.
func BenchmarkTraceTraffic(b *testing.B) {
	tr := benchTrace(b)
	eager := ib.OpenMPI().EagerThreshold
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Traffic(eager); err != nil {
			b.Fatal(err)
		}
	}
}
