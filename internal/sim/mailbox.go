package sim

// Mailbox is an unbounded FIFO queue connecting simulation processes.
// Put never blocks; Get blocks the calling proc until an item is available.
// Delivery order is insertion order, and wakes are processed in FIFO order,
// so a mailbox with multiple readers is deterministic.
type Mailbox[T any] struct {
	eng     *Engine
	name    string
	items   []T
	waiters []*Proc

	// Park reasons are built once at construction so the blocking hot
	// path never concatenates strings.
	reason      string
	reasonMatch string
}

// NewMailbox creates a mailbox on the given engine. The name appears in
// deadlock reports of procs blocked on Get.
func NewMailbox[T any](eng *Engine, name string) *Mailbox[T] {
	return &Mailbox[T]{
		eng:         eng,
		name:        name,
		reason:      "mailbox " + name,
		reasonMatch: "mailbox " + name + " (match)",
	}
}

// Len returns the number of queued items.
func (m *Mailbox[T]) Len() int { return len(m.items) }

// Put appends an item and wakes the longest-waiting reader, if any.
// It may be called from any simulation context (event or proc).
func (m *Mailbox[T]) Put(v T) {
	m.items = append(m.items, v)
	m.wakeOne()
}

// wakeOne pops the first waiter without a pending wake and wakes it.
// Pops shift the slice down instead of advancing the window (waiters =
// waiters[1:]): a sliding window exhausts the backing array's tail and
// makes the next append reallocate, one fresh array per blocked reader
// — the queues here stay short, so the copy is cheaper than the churn.
func (m *Mailbox[T]) wakeOne() {
	for len(m.waiters) > 0 {
		w := m.waiters[0]
		copy(m.waiters, m.waiters[1:])
		m.waiters[len(m.waiters)-1] = nil
		m.waiters = m.waiters[:len(m.waiters)-1]
		if !w.WakePending() && w.Parked() {
			w.Wake()
			return
		}
	}
}

// Get removes and returns the oldest item, blocking the calling proc while
// the mailbox is empty.
func (m *Mailbox[T]) Get(p *Proc) T {
	for len(m.items) == 0 {
		m.waiters = append(m.waiters, p)
		p.Park(m.reason)
	}
	return m.popFront()
}

// popFront removes and returns the oldest item, shifting the slice down
// so the backing array keeps being reused (see wakeOne).
func (m *Mailbox[T]) popFront() T {
	v := m.items[0]
	copy(m.items, m.items[1:])
	var zero T
	m.items[len(m.items)-1] = zero
	m.items = m.items[:len(m.items)-1]
	return v
}

// TryGet removes and returns the oldest item without blocking.
func (m *Mailbox[T]) TryGet() (T, bool) {
	if len(m.items) == 0 {
		var zero T
		return zero, false
	}
	return m.popFront(), true
}

// GetMatch removes and returns the oldest item satisfying pred, blocking
// until one arrives. Items not matching stay queued in order. This is the
// primitive used for tag/source matching in the MPI layers.
func (m *Mailbox[T]) GetMatch(p *Proc, pred func(T) bool) T {
	for {
		if v, ok := m.MatchOrWait(p, pred); ok {
			return v
		}
		p.park(m.reasonMatch)
	}
}

// MatchOrWait removes and returns the oldest item satisfying pred, or —
// when none is queued — registers p as a waiter, so the next Put wakes
// it, and returns false. It never blocks, so an event can run a receive
// match on behalf of a parked proc: on a match the event hands the item
// over and resumes the proc; otherwise the proc stays parked exactly as
// if it had called GetMatch, and re-runs the match when woken.
func (m *Mailbox[T]) MatchOrWait(p *Proc, pred func(T) bool) (T, bool) {
	for i, v := range m.items {
		if pred(v) {
			copy(m.items[i:], m.items[i+1:])
			var zero T
			m.items[len(m.items)-1] = zero
			m.items = m.items[:len(m.items)-1]
			return v, true
		}
	}
	m.waiters = append(m.waiters, p)
	p.parkReason = m.reasonMatch
	var zero T
	return zero, false
}
