// Package sim implements a deterministic discrete-event simulation engine
// with cooperative coroutine processes.
//
// The engine maintains a calendar of timestamped events. Ties are broken by
// insertion sequence, so a given program always replays identically. On top
// of raw events the package offers Procs — coroutines that execute
// simulation logic written in a natural blocking style (Sleep, Park,
// mailbox Get) — while the engine guarantees that at most one of them
// (the engine loop or exactly one Proc) runs at any instant. This keeps the
// simulation deterministic and free of data races without any locking in
// model code.
//
// The calendar has two parts. Future events sit in a 4-ary min-heap of
// event values held in one slab slice; events scheduled for the current
// instant (At(Now()), Schedule(0, ...): wakes, grants, chained
// continuations) skip the heap and go to a same-instant FIFO lane. The
// split keeps the strict (time, seq) order exactly: every heap event at
// Now() was scheduled before the clock reached Now() and so carries a
// lower sequence number than anything in the lane, so the loop
// dispatches heap events at Now() first, then drains the lane, and only
// then advances the clock. Pending and CalendarPeak count both parts.
// Scheduling costs no allocation beyond amortised slice growth, and
// dispatching never touches the garbage collector.
//
// Procs ride iter.Pull coroutines (direct runtime switches, no channel
// round trips), the live set is an intrusive list threaded through the
// Procs themselves, and a finished engine can be Reset — calendar slab,
// list headers and daemon procs retained — so pooled callers (the trace
// replay evaluator) pay construction once per search, not per
// evaluation. An event may also act for a parked proc and switch into
// it only when there is work: Mailbox.MatchOrWait runs a receive match
// on the proc's behalf, and Proc.Resume hands control over inline. All
// of it matters because the experiment orchestrator runs one engine per
// experiment across all CPUs at once, and the placement optimizer
// replays tens of thousands of evaluations per run.
package sim

import (
	"fmt"
	"sort"
	"strings"

	"roadrunner/internal/units"
)

// event is a single calendar entry. Events are stored by value in the
// engine's heap slab.
type event struct {
	at  units.Time
	seq int64
	fn  func()
}

// Engine is a discrete-event simulation engine. The zero value is not
// usable; construct with NewEngine.
type Engine struct {
	now    units.Time
	seq    int64
	events []event  // 4-ary min-heap of future events, ordered by (at, seq)
	lane   []func() // same-instant FIFO: events at now, scheduled at now
	head   int      // next lane entry to dispatch

	procs   procList // all live (not yet finished) procs
	daemons int      // live procs spawned with SpawnDaemon
	closed  bool

	dispatched int64 // events executed over the engine's lifetime
	peakEvents int   // calendar high-water mark (heap plus lane)

	running *Proc // the proc executing right now; nil in event context
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() units.Time { return e.now }

// Schedule arranges for fn to run at Now()+delay. A negative delay panics:
// the calendar cannot move backwards.
func (e *Engine) Schedule(delay units.Time, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.At(e.now+delay, fn)
}

// At arranges for fn to run at absolute time t, which must not precede Now().
func (e *Engine) At(t units.Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	e.seq++
	if t == e.now {
		e.lane = append(e.lane, fn)
		e.notePeak()
		return
	}
	e.push(event{at: t, seq: e.seq, fn: fn})
}

// notePeak records the calendar high-water mark. Heap and lane together
// hold exactly the events a single heap would, so the mark is the same.
func (e *Engine) notePeak() {
	if n := len(e.events) + len(e.lane) - e.head; n > e.peakEvents {
		e.peakEvents = n
	}
}

// lessEv orders events by (time, sequence).
func lessEv(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push appends an event value to the slab and restores the heap property.
// The sift moves a hole up and places the new event once, instead of
// swapping three words at every level.
//
// The calendar is a 4-ary min-heap: half the depth of a binary heap, so
// pop — the engine's single hottest function on full-machine sweeps —
// sifts through half as many levels, and the four children it compares
// per level share cache lines. The heap pops the strict (time, seq)
// total order's exact minimum either way, so the dispatch sequence (and
// every simulated result) is identical to the binary-heap calendar's.
func (e *Engine) push(ev event) {
	e.events = append(e.events, ev)
	e.notePeak()
	i := len(e.events) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !lessEv(&ev, &e.events[parent]) {
			break
		}
		e.events[i] = e.events[parent]
		i = parent
	}
	e.events[i] = ev
}

// pop removes and returns the earliest event, sifting the hole down and
// placing the displaced last element once. The vacated slab slot is
// zeroed so the event closure can be collected.
func (e *Engine) pop() event {
	top := e.events[0]
	n := len(e.events) - 1
	last := e.events[n]
	e.events[n] = event{}
	e.events = e.events[:n]
	if n == 0 {
		return top
	}
	i := 0
	for {
		least := 4*i + 1
		if least >= n {
			break
		}
		end := least + 4
		if end > n {
			end = n
		}
		for c := least + 1; c < end; c++ {
			if lessEv(&e.events[c], &e.events[least]) {
				least = c
			}
		}
		if !lessEv(&e.events[least], &last) {
			break
		}
		e.events[i] = e.events[least]
		i = least
	}
	e.events[i] = last
	return top
}

// next removes and returns the event to dispatch — the heap's minimum if
// it is due at Now(), else the lane's oldest entry, else the heap's
// minimum with the clock advanced to it — or nil when the calendar is
// empty or (until >= 0) the next event lies beyond until.
func (e *Engine) next(until units.Time) func() {
	if len(e.events) > 0 && e.events[0].at == e.now {
		return e.pop().fn
	}
	if e.head < len(e.lane) {
		fn := e.lane[e.head]
		e.lane[e.head] = nil
		e.head++
		if e.head == len(e.lane) {
			e.lane = e.lane[:0]
			e.head = 0
		}
		return fn
	}
	if len(e.events) == 0 || until >= 0 && e.events[0].at > until {
		return nil
	}
	ev := e.pop()
	e.now = ev.at
	return ev.fn
}

// Pending reports the number of events on the calendar.
func (e *Engine) Pending() int { return len(e.events) + len(e.lane) - e.head }

// Stats is a snapshot of engine counters, cheap enough to read anywhere.
type Stats struct {
	Dispatched   int64 // events executed so far
	CalendarPeak int   // calendar high-water mark (slab length)
	LiveProcs    int   // procs spawned and not yet finished
	ParkedProcs  int   // procs currently blocked
}

// Stats returns the engine's lifetime counters. Daemon procs are
// infrastructure, not simulation state, and are not counted.
func (e *Engine) Stats() Stats {
	parked := 0
	for p := e.procs.head; p != nil; p = p.next {
		if p.state == procParked && !p.daemon {
			parked++
		}
	}
	return Stats{
		Dispatched:   e.dispatched,
		CalendarPeak: e.peakEvents,
		LiveProcs:    e.procs.n - e.daemons,
		ParkedProcs:  parked,
	}
}

// Reset returns a finished engine to its initial state — time zero,
// empty calendar, zeroed counters — while keeping the calendar slab and
// the proc-list headers allocated, so a pooled engine replays a fresh
// workload without rebuilding its structures. A run that completed
// cleanly (Run returned nil and every proc finished) resets to a state
// byte-identical to NewEngine's apart from retained capacity; resetting
// a closed engine, or one with live procs or queued events, panics —
// those runs must be torn down with Close instead.
func (e *Engine) Reset() {
	if e.closed {
		panic("sim: reset of a closed engine")
	}
	if e.procs.n > e.daemons {
		panic(fmt.Sprintf("sim: reset with %d live proc(s)", e.procs.n-e.daemons))
	}
	if n := e.Pending(); n > 0 {
		panic(fmt.Sprintf("sim: reset with %d queued event(s)", n))
	}
	e.now = 0
	e.seq = 0
	e.dispatched = 0
	e.peakEvents = 0
}

// DeadlockError is returned by Run when the calendar empties while
// processes remain blocked with nothing left to wake them.
type DeadlockError struct {
	Time  units.Time
	Procs []string // names and park reasons of the blocked processes
}

// Error implements the error interface.
func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: %d blocked process(es): %s",
		d.Time, len(d.Procs), strings.Join(d.Procs, "; "))
}

// Run processes events until the calendar is empty. It returns nil on a
// clean finish, or a *DeadlockError if blocked processes remain.
func (e *Engine) Run() error {
	return e.run(-1)
}

// RunUntil processes events with timestamps <= t, then advances the clock
// to t. Events beyond t remain queued. Blocked processes are not an error
// here: the caller may still intend to run further.
func (e *Engine) RunUntil(t units.Time) error {
	if t < e.now {
		return fmt.Errorf("sim: RunUntil(%v) before now %v", t, e.now)
	}
	err := e.run(t)
	if err == nil && e.now < t {
		e.now = t
	}
	return err
}

func (e *Engine) run(until units.Time) error {
	if e.closed {
		return fmt.Errorf("sim: engine is closed")
	}
	for fn := e.next(until); fn != nil; fn = e.next(until) {
		e.dispatched++
		fn()
	}
	if until < 0 && e.procs.n > e.daemons {
		// Control only returns to the loop when every live proc is
		// blocked, so an empty calendar with live non-daemon procs is a
		// deadlock.
		d := &DeadlockError{Time: e.now}
		for p := e.procs.head; p != nil; p = p.next {
			if !p.daemon {
				d.Procs = append(d.Procs, p.name+" ("+p.parkReason+")")
			}
		}
		sort.Strings(d.Procs)
		return d
	}
	return nil
}

// Close terminates any still-parked processes so their goroutines exit.
// The engine is unusable afterwards. It is safe to call Close after Run
// returned a DeadlockError, and in tests via defer.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	for p := e.procs.head; p != nil; {
		next := p.next
		p.kill()
		p = next
	}
	e.procs = procList{}
	e.daemons = 0
	e.events = nil
	e.lane = nil
	e.head = 0
}
