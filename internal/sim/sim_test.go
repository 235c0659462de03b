package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"roadrunner/internal/units"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30*units.Nanosecond, func() { got = append(got, 3) })
	e.Schedule(10*units.Nanosecond, func() { got = append(got, 1) })
	e.Schedule(20*units.Nanosecond, func() { got = append(got, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order = %v", got)
	}
	if e.Now() != 30*units.Nanosecond {
		t.Errorf("final time = %v", e.Now())
	}
}

func TestTieBreakBySequence(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(units.Microsecond, func() { got = append(got, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("tie order = %v", got)
		}
	}
}

// calendarModel mirrors the engine's calendar from outside: every call
// that schedules exactly one event takes the next sequence number, as
// the engine's own counter does, and every dispatch is logged with its
// (at, seq). Dispatch must follow that total order exactly, whether an
// event went through the heap or the same-instant lane.
type calendarModel struct {
	e     *Engine
	rng   *rand.Rand
	seq   int64
	want  map[int64]units.Time // scheduled, not yet dispatched: seq → at
	log   []calStamp
	peak  int
	procs int
	err   string
}

type calStamp struct {
	at  units.Time
	seq int64
}

func (m *calendarModel) failf(format string, args ...any) {
	if m.err == "" {
		m.err = fmt.Sprintf(format, args...)
	}
}

// scheduled records one event put on the calendar for at, just before
// (a proc's Sleep or a Wake) or just after the call that schedules it.
func (m *calendarModel) scheduled(at units.Time) int64 {
	m.seq++
	m.want[m.seq] = at
	m.peak = max(m.peak, len(m.want))
	return m.seq
}

// fired logs the dispatch of event seq.
func (m *calendarModel) fired(seq int64) {
	at, ok := m.want[seq]
	if !ok || at != m.e.Now() {
		m.failf("event %d fired at %v, scheduled for %v (known %v)", seq, m.e.Now(), at, ok)
	}
	delete(m.want, seq)
	m.log = append(m.log, calStamp{at, seq})
	if got := m.e.Pending(); got != len(m.want) {
		m.failf("Pending() = %d while dispatching, want %d", got, len(m.want))
	}
}

// event schedules a logged event at t that acts further when it fires.
func (m *calendarModel) event(t units.Time, depth int) {
	var id int64
	m.e.At(t, func() {
		m.fired(id)
		m.act(depth - 1)
	})
	id = m.scheduled(t)
	if got := m.e.Pending(); got != len(m.want) {
		m.failf("Pending() = %d after scheduling, want %d", got, len(m.want))
	}
}

// act performs random scheduling work, heavy in At(Now()): from an
// event, a proc body or the test itself between RunUntil slices.
func (m *calendarModel) act(depth int) {
	if depth <= 0 {
		return
	}
	for n := m.rng.Intn(3); n >= 0; n-- {
		switch r := m.rng.Intn(10); {
		case r < 5:
			m.event(m.e.Now(), depth)
		case r < 8:
			// Small offsets make ties with heap events at one instant.
			m.event(m.e.Now()+units.Time(m.rng.Intn(3))*units.Nanosecond, depth)
		case r < 9 && m.procs < 12:
			m.spawn(units.Time(m.rng.Intn(2))*units.Nanosecond, depth)
		}
	}
}

// spawn starts a proc that sleeps (often for zero), schedules events
// and parks until an event wakes it, logging each of its resumes.
func (m *calendarModel) spawn(delay units.Time, depth int) {
	m.procs++
	var start int64
	m.e.SpawnAt(delay, "p", func(p *Proc) {
		m.fired(start)
		for k := m.rng.Intn(4); k >= 0; k-- {
			m.act(depth - 1)
			switch m.rng.Intn(3) {
			case 0, 1:
				d := units.Time(m.rng.Intn(2)) * units.Nanosecond
				id := m.scheduled(p.Now() + d)
				p.Sleep(d)
				m.fired(id)
			case 2:
				var wake int64
				var waker int64
				d := units.Time(m.rng.Intn(2)) * units.Nanosecond
				m.e.Schedule(d, func() {
					m.fired(waker)
					wake = m.scheduled(m.e.Now())
					p.Wake()
				})
				waker = m.scheduled(p.Now() + d)
				p.Park("waiting for the waker event")
				m.fired(wake)
			}
		}
	})
	start = m.scheduled(m.e.Now() + delay)
}

// runCalendar drives one random schedule through RunUntil slices and a
// final Run, and returns the dispatch log.
func runCalendar(e *Engine, seed int64) ([]calStamp, string) {
	m := &calendarModel{e: e, rng: rand.New(rand.NewSource(seed)), want: map[int64]units.Time{}}
	for slice := 0; slice < 4; slice++ {
		m.act(4)
		m.event(e.Now(), 3) // into the lane from outside the loop
		until := e.Now() + units.Time(m.rng.Intn(4))*units.Nanosecond
		if err := e.RunUntil(until); err != nil {
			return nil, err.Error()
		}
		if e.Now() != until {
			m.failf("RunUntil(%v) left the clock at %v", until, e.Now())
		}
		for _, at := range m.want {
			if at <= until {
				m.failf("event due at %v still pending after RunUntil(%v)", at, until)
			}
		}
	}
	if err := e.Run(); err != nil {
		return nil, err.Error()
	}
	if len(m.want) != 0 || e.Pending() != 0 {
		m.failf("%d event(s) never fired, Pending() = %d", len(m.want), e.Pending())
	}
	for i := 1; i < len(m.log); i++ {
		a, b := m.log[i-1], m.log[i]
		if a.at > b.at || a.at == b.at && a.seq > b.seq {
			m.failf("dispatch %d (%v, seq %d) after (%v, seq %d)", i, b.at, b.seq, a.at, a.seq)
		}
	}
	st := e.Stats()
	if st.Dispatched != int64(len(m.log)) || st.CalendarPeak != m.peak {
		m.failf("stats %+v, want %d dispatched, peak %d", st, len(m.log), m.peak)
	}
	return m.log, m.err
}

// TestEventOrderProperty: random schedules heavy in same-instant events,
// issued from events, procs and between RunUntil slices, dispatch in
// exactly the (at, seq) order with exact Pending() and CalendarPeak
// counts, and a Reset engine replays the same schedule identically.
func TestEventOrderProperty(t *testing.T) {
	pooled := NewEngine()
	defer pooled.Close()
	f := func(seed int64) bool {
		fresh := NewEngine()
		defer fresh.Close()
		want, msg := runCalendar(fresh, seed)
		if msg != "" {
			t.Logf("seed %d: %s", seed, msg)
			return false
		}
		pooled.Reset()
		got, msg := runCalendar(pooled, seed)
		if msg != "" || !reflect.DeepEqual(got, want) {
			t.Logf("seed %d: pooled engine diverged: %s", seed, msg)
			return false
		}
		return len(want) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestResumeFromEvent: an event resumes a parked proc inline, at its own
// instant and without a calendar slot of its own; the contract panics
// from a proc, on a proc that is not parked, and with a wake pending.
func TestResumeFromEvent(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	var resumedAt units.Time
	waiter := e.Spawn("waiter", func(p *Proc) {
		p.Park("resumed inline")
		resumedAt = p.Now()
	})
	e.Schedule(4*units.Nanosecond, waiter.Resume)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if resumedAt != 4*units.Nanosecond || e.Stats().Dispatched != 2 {
		t.Errorf("resumed at %v after %d events, want 4ns after 2", resumedAt, e.Stats().Dispatched)
	}

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	e2 := NewEngine()
	defer e2.Close()
	parked := e2.Spawn("parked", func(p *Proc) { p.Park("never resumed by the caller") })
	e2.Spawn("caller", func(p *Proc) {
		mustPanic("resume from a proc", parked.Resume)
		p.Sleep(units.Nanosecond)
		parked.Wake()
	})
	done := e2.Spawn("done", func(*Proc) {})
	e2.Schedule(2*units.Nanosecond, func() {
		mustPanic("resume of a finished proc", done.Resume)
	})
	pending := e2.Spawn("pending", func(p *Proc) { p.Park("woken once") })
	e2.Schedule(3*units.Nanosecond, func() {
		pending.Wake()
		mustPanic("resume with a wake pending", pending.Resume)
	})
	if err := e2.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on negative delay")
		}
	}()
	e := NewEngine()
	e.Schedule(-1, func() {})
}

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	var wake units.Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * units.Microsecond)
		p.Sleep(3 * units.Microsecond)
		wake = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wake != 8*units.Microsecond {
		t.Errorf("woke at %v, want 8us", wake)
	}
}

func TestProcInterleaving(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	var trace []string
	e.Spawn("a", func(p *Proc) {
		trace = append(trace, "a0")
		p.Sleep(2 * units.Nanosecond)
		trace = append(trace, "a2")
	})
	e.Spawn("b", func(p *Proc) {
		trace = append(trace, "b0")
		p.Sleep(1 * units.Nanosecond)
		trace = append(trace, "b1")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a0", "b0", "b1", "a2"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	e.Spawn("stuck", func(p *Proc) {
		p.Park("waiting for nothing")
	})
	err := e.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Procs) != 1 {
		t.Errorf("blocked procs = %v", de.Procs)
	}
}

func TestParkWake(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	var p1 *Proc
	var order []string
	p1 = e.Spawn("waiter", func(p *Proc) {
		p.Park("test")
		order = append(order, "woken")
	})
	e.Spawn("waker", func(p *Proc) {
		p.Sleep(10 * units.Nanosecond)
		order = append(order, "waking")
		p1.Wake()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "waking" || order[1] != "woken" {
		t.Errorf("order = %v", order)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(10*units.Nanosecond, func() { fired++ })
	e.Schedule(30*units.Nanosecond, func() { fired++ })
	if err := e.RunUntil(20 * units.Nanosecond); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	if e.Now() != 20*units.Nanosecond {
		t.Errorf("now = %v, want 20ns", e.Now())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Errorf("fired = %d, want 2", fired)
	}
}

func TestMailboxFIFO(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	mb := NewMailbox[int](e, "test")
	var got []int
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(units.Nanosecond)
			mb.Put(i)
		}
	})
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, mb.Get(p))
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got = %v", got)
		}
	}
}

func TestMailboxBlocksUntilPut(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	mb := NewMailbox[string](e, "test")
	var when units.Time
	e.Spawn("consumer", func(p *Proc) {
		mb.Get(p)
		when = p.Now()
	})
	e.Spawn("producer", func(p *Proc) {
		p.Sleep(42 * units.Nanosecond)
		mb.Put("x")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if when != 42*units.Nanosecond {
		t.Errorf("received at %v, want 42ns", when)
	}
}

func TestMailboxGetMatch(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	mb := NewMailbox[int](e, "test")
	var got []int
	e.Spawn("c", func(p *Proc) {
		// Want only even numbers, in arrival order.
		for i := 0; i < 3; i++ {
			got = append(got, mb.GetMatch(p, func(v int) bool { return v%2 == 0 }))
		}
	})
	e.Spawn("p", func(p *Proc) {
		for _, v := range []int{1, 2, 3, 4, 5, 6} {
			p.Sleep(units.Nanosecond)
			mb.Put(v)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 2 || got[1] != 4 || got[2] != 6 {
		t.Errorf("got = %v", got)
	}
	// The odd ones remain queued in order.
	if mb.Len() != 3 {
		t.Errorf("remaining = %d", mb.Len())
	}
	v, ok := mb.TryGet()
	if !ok || v != 1 {
		t.Errorf("TryGet = %v, %v", v, ok)
	}
}

func TestResourceSerialises(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	res := NewResource(e, "link", 1)
	var done []units.Time
	for i := 0; i < 3; i++ {
		e.Spawn("user", func(p *Proc) {
			res.Use(p, 10*units.Nanosecond)
			done = append(done, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []units.Time{10 * units.Nanosecond, 20 * units.Nanosecond, 30 * units.Nanosecond}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("done = %v, want %v", done, want)
		}
	}
	if res.BusyTime() != 30*units.Nanosecond {
		t.Errorf("busy = %v", res.BusyTime())
	}
}

func TestResourceCapacityTwo(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	res := NewResource(e, "dual", 2)
	var done []units.Time
	for i := 0; i < 4; i++ {
		e.Spawn("user", func(p *Proc) {
			res.Use(p, 10*units.Nanosecond)
			done = append(done, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Two at a time: finish at 10,10,20,20.
	want := []units.Time{10 * units.Nanosecond, 10 * units.Nanosecond, 20 * units.Nanosecond, 20 * units.Nanosecond}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("done = %v, want %v", done, want)
		}
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	res := NewResource(e, "link", 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.SpawnAt(units.Time(i)*units.Nanosecond, "user", func(p *Proc) {
			res.Acquire(p, 1)
			order = append(order, i)
			p.Sleep(100 * units.Nanosecond)
			res.Release(1)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []units.Time {
		e := NewEngine()
		defer e.Close()
		res := NewResource(e, "r", 1)
		mb := NewMailbox[int](e, "m")
		var times []units.Time
		for i := 0; i < 8; i++ {
			i := i
			e.Spawn("p", func(p *Proc) {
				p.Sleep(units.Time(i%3) * units.Nanosecond)
				res.Use(p, 5*units.Nanosecond)
				mb.Put(i)
				times = append(times, p.Now())
			})
		}
		e.Spawn("drain", func(p *Proc) {
			for i := 0; i < 8; i++ {
				mb.Get(p)
				times = append(times, p.Now())
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run differs at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestCloseUnblocksParked(t *testing.T) {
	e := NewEngine()
	e.Spawn("stuck", func(p *Proc) {
		p.Park("forever")
		t.Error("should never resume normally")
	})
	if err := e.Run(); err == nil {
		t.Fatal("expected deadlock")
	}
	e.Close() // must not hang and must not run the post-Park code
}

func TestSpawnAtDelay(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	var start units.Time
	e.SpawnAt(7*units.Microsecond, "late", func(p *Proc) {
		start = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if start != 7*units.Microsecond {
		t.Errorf("started at %v", start)
	}
}
