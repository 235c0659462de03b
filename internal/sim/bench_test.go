package sim

import (
	"testing"

	"roadrunner/internal/units"
)

// BenchmarkEventLoop measures the raw calendar hot path: schedule and
// dispatch a batch of events, including events scheduled from inside
// event context (the common model pattern).
//
// Measured on the reference box (Xeon @ 2.10GHz, -benchtime 200x):
//
//	before (container/heap over []*event, map proc sets, eager reasons):
//	  BenchmarkEventLoop         445718 ns/op   95512 B/op   3087 allocs/op
//	  BenchmarkProcParkUnpark   2773420 ns/op  183035 B/op  12768 allocs/op
//	  BenchmarkMailboxPingPong   711675 ns/op   56766 B/op   4117 allocs/op
//
//	after (value-slab binary heap, intrusive lists, reusable wake closures):
//	  BenchmarkEventLoop         265646 ns/op   75864 B/op   1036 allocs/op
//	  BenchmarkProcParkUnpark   1427189 ns/op   30170 B/op    392 allocs/op
//	  BenchmarkMailboxPingPong   516821 ns/op    9520 B/op   1044 allocs/op
//
//	after PR 5 (iter.Pull coroutine procs, lazy parked set, hole-sift
//	heap, shift-down queue pops):
//	  BenchmarkEventLoop         256195 ns/op   75848 B/op   1036 allocs/op
//	  BenchmarkProcParkUnpark    524442 ns/op   36296 B/op    968 allocs/op
//	  BenchmarkMailboxPingPong   143468 ns/op    1544 B/op     43 allocs/op
func BenchmarkEventLoop(b *testing.B) {
	const batch = 1024
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < batch; j++ {
			d := units.Time(j%97) * units.Nanosecond
			e.Schedule(d, func() {
				e.Schedule(units.Nanosecond, func() {})
			})
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEventLoopSameInstant measures the calendar under the DES's
// dominant same-instant pattern: every timed event fans out into
// zero-delay follow-ups (wakes, admission grants, chained
// continuations), which the lane dispatches without touching the heap,
// while a standing backlog of future events keeps the heap deep.
func BenchmarkEventLoopSameInstant(b *testing.B) {
	const batch, backlog = 1024, 512
	b.ReportAllocs()
	e := NewEngine()
	for i := 0; i < b.N; i++ {
		e.Reset()
		for j := 0; j < backlog; j++ {
			e.Schedule(units.Time(1000+j)*units.Nanosecond, func() {})
		}
		for j := 0; j < batch; j++ {
			d := units.Time(j%97) * units.Nanosecond
			e.Schedule(d, func() {
				e.Schedule(0, func() {
					e.Schedule(0, func() {})
				})
				e.Schedule(0, func() {})
			})
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProcParkUnpark measures proc churn: a ring of procs that
// repeatedly sleep, exercising park/unpark bookkeeping (the structures
// the orchestrator amplifies when many DES engines run at once).
func BenchmarkProcParkUnpark(b *testing.B) {
	const procs, rounds = 64, 32
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < procs; j++ {
			j := j
			e.Spawn("p", func(p *Proc) {
				for r := 0; r < rounds; r++ {
					p.Sleep(units.Time(1+j%7) * units.Nanosecond)
				}
			})
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
		e.Close()
	}
}

// BenchmarkMailboxPingPong measures two procs bouncing messages through
// mailboxes — the pattern underlying every modelled MPI exchange.
func BenchmarkMailboxPingPong(b *testing.B) {
	const rounds = 256
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		ab := NewMailbox[int](e, "ab")
		ba := NewMailbox[int](e, "ba")
		e.Spawn("a", func(p *Proc) {
			for r := 0; r < rounds; r++ {
				ab.Put(r)
				ba.Get(p)
			}
		})
		e.Spawn("b", func(p *Proc) {
			for r := 0; r < rounds; r++ {
				ab.Get(p)
				p.Sleep(units.Nanosecond)
				ba.Put(r)
			}
		})
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
		e.Close()
	}
}
