// Package trace captures and replays application communication
// schedules over the Roadrunner interconnect models.
//
// The congestion-aware transport (internal/transport) was validated by
// synthetic collective sweeps; this package feeds it real application
// phases instead, the way the BlueGene/L and CP-PACS design teams
// validated their fabrics by replaying application communication
// schedules against the network model. A Trace is an ordered per-rank
// stream of point-to-point send/recv/compute records — each with a
// logical timestamp from the capture run and, for receives, an explicit
// dependency on the matching send — serialized one JSON object per line
// (a header line, then one line per record in canonical rank-major
// order).
//
// Three layers:
//
//   - the format (this file): Record/Trace, canonical ordering, and
//     Validate, which checks per-rank sequence density, perfect FIFO
//     send/recv matching per (src, dst, tag) channel, and acyclicity of
//     the dependency graph — a validated trace can never deadlock the
//     replay engine;
//   - the codec (codec.go): JSONL (de)serialization whose output is
//     byte-canonical, so serialize→parse→serialize is the identity;
//   - the replay engine (replay.go): drives transport.Net.Transfer
//     directly from a trace under any rank→node placement and
//     congestion policy, honoring per-rank ordering and cross-rank
//     dependencies via sim procs, and reporting per-message timing plus
//     the link-contention census.
//
// Capture hooks live with the applications (sweep3d.CaptureDES records
// the Sweep3D wavefront schedule); the scenario layer sweeps a captured
// trace across placements, and cmd/rrtrace exposes
// capture/replay/inspect on the command line.
package trace

import (
	"fmt"
	"sort"

	"roadrunner/internal/units"
)

// Kind classifies a trace record.
type Kind string

// The record kinds.
const (
	// KindCompute is local work: the rank is busy for Duration.
	KindCompute Kind = "compute"
	// KindSend is a blocking point-to-point send of Size bytes to Peer.
	KindSend Kind = "send"
	// KindRecv blocks until the matching send's payload arrives. Dep is
	// the sequence number of that send in Peer's stream.
	KindRecv Kind = "recv"
)

// valid reports whether k is one of the three record kinds.
func (k Kind) valid() bool {
	return k == KindCompute || k == KindSend || k == KindRecv
}

// NoPeer and NoDep are the Peer/Dep values of records the field does not
// apply to, so every field of every record is explicit in the JSONL.
const (
	NoPeer = -1
	NoDep  = -1
)

// Record is one operation of one rank's stream.
type Record struct {
	// Rank issues the operation; Seq is its position in the rank's
	// stream (dense from 0). (Rank, Seq) identifies a record uniquely.
	Rank int
	Seq  int
	Kind Kind
	// Peer is the destination rank of a send or the source rank of a
	// recv (NoPeer for compute).
	Peer int
	// Tag disambiguates messages between the same rank pair.
	Tag int
	// Size is the payload wire size of a send and of its matching recv.
	Size units.Size
	// Duration is the busy time of a compute record.
	Duration units.Time
	// At is the logical timestamp of the operation's completion in the
	// capture run. Replay derives its own timing; At is informational
	// (inspection, capture-vs-replay comparison) and must be
	// non-negative.
	At units.Time
	// Dep is the Seq of the matching send in Peer's stream (recv records
	// only, NoDep otherwise): the explicit cross-rank dependency.
	Dep int
}

// String renders the record on one line.
func (r Record) String() string {
	switch r.Kind {
	case KindCompute:
		return fmt.Sprintf("rank%d[%d] compute %v", r.Rank, r.Seq, r.Duration)
	case KindSend:
		return fmt.Sprintf("rank%d[%d] send %v to %d tag %d", r.Rank, r.Seq, r.Size, r.Peer, r.Tag)
	case KindRecv:
		return fmt.Sprintf("rank%d[%d] recv %v from %d tag %d (dep %d)", r.Rank, r.Seq, r.Size, r.Peer, r.Tag, r.Dep)
	}
	return fmt.Sprintf("rank%d[%d] %q", r.Rank, r.Seq, string(r.Kind))
}

// Meta describes a trace: where it came from and how many ranks it
// spans.
type Meta struct {
	// Name labels the trace (e.g. "sweep3d-8x8").
	Name string
	// App is the application that produced it.
	App string
	// Ranks is the number of rank streams (ranks are dense from 0).
	Ranks int
	// Attrs carries capture parameters as key/value strings (grid
	// dimensions, blocking factors, ...). Keys serialize sorted.
	Attrs map[string]string
}

// Trace is a captured communication schedule: per-rank record streams in
// canonical order (rank-major, sequence-minor).
//
// A trace is read-only once built: Decode (like capture) returns it
// normalized and validated, and nothing downstream — Validate, the
// evaluators and their pools, the replay engines, the surrogate, the
// placement search — writes to its Meta or Records. One decoded trace
// may therefore back any number of concurrent replays and searches; a
// caller that wants to edit one works on a copy.
type Trace struct {
	Meta    Meta
	Records []Record
}

// Stats summarises a trace's content.
type Stats struct {
	Ranks    int
	Records  int
	Computes int
	Sends    int
	Recvs    int
	// Bytes is the total payload carried by send records; ComputeTime
	// the total busy time of compute records (summed over ranks).
	Bytes       units.Size
	ComputeTime units.Time
	// Span is the largest At timestamp: the capture run's makespan.
	Span units.Time
}

// Stats tallies the trace.
func (t *Trace) Stats() Stats {
	s := Stats{Ranks: t.Meta.Ranks, Records: len(t.Records)}
	for _, r := range t.Records {
		switch r.Kind {
		case KindCompute:
			s.Computes++
			s.ComputeTime += r.Duration
		case KindSend:
			s.Sends++
			s.Bytes += r.Size
		case KindRecv:
			s.Recvs++
		}
		if r.At > s.Span {
			s.Span = r.At
		}
	}
	return s
}

// Normalize sorts the records into canonical order (rank-major,
// sequence-minor). Decode calls it so hand-edited files in any order
// load; capture and the codec always produce canonical order already.
// It is the one mutator of a built trace, and only Decode calls it,
// before the trace is returned and shared.
func (t *Trace) Normalize() {
	sort.SliceStable(t.Records, func(i, j int) bool {
		a, b := t.Records[i], t.Records[j]
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		return a.Seq < b.Seq
	})
}

// chanKey identifies a directed (src, dst, tag) message channel, on
// which sends and recvs match in FIFO order.
type chanKey struct {
	src, dst, tag int
}

// Format bounds, enforced by Validate: generous enough for a day-long
// full-machine phase, tight enough that a replay's simulated clock (an
// int64 of picoseconds, ±106 days) cannot overflow — the makespan is
// bounded by the total busy time, which these caps keep far below the
// representable range. Without them a crafted trace could wrap the
// calendar and panic the engine instead of erroring at load time.
const (
	// MaxMessageSize caps one record's payload (1 TB).
	MaxMessageSize units.Size = 1 << 40
	// MaxComputeDuration caps one compute record (1 hour).
	MaxComputeDuration units.Time = 3600 * units.Second
	// MaxTotalCompute caps the summed compute across all records (30
	// days).
	MaxTotalCompute units.Time = 720 * 3600 * units.Second
	// MaxTotalBytes caps the summed payload across all records (1 PB,
	// ~11 simulated days of streaming at the far-core rate).
	MaxTotalBytes units.Size = 1 << 50
	// MaxRanks caps a trace's rank count (an order of magnitude above
	// the full machine's 97,920 SPE ranks). Validate allocates per-rank
	// state, so an unchecked header could demand petabytes or overflow
	// make — a panic, not the error the decode contract promises.
	MaxRanks = 1 << 20
)

// Validate checks every invariant the replay engine relies on:
//
//   - records are in canonical order with per-rank sequence numbers
//     dense from 0;
//   - every field is consistent with its record's kind (peers in range,
//     sizes and durations non-negative, NoPeer/NoDep where inapplicable);
//   - sends and recvs pair perfectly: the k-th recv on a (src, dst, tag)
//     channel matches the k-th send, with equal sizes and the recv's Dep
//     naming exactly that send's Seq — no unmatched send, no orphan recv;
//   - the dependency graph (per-rank program order plus send→recv
//     edges) is acyclic, so a replay can always make progress.
//
// A trace that passes Validate replays without deadlock under every
// placement and congestion policy.
func (t *Trace) Validate() error {
	if t.Meta.Ranks < 1 {
		return fmt.Errorf("trace: %d ranks", t.Meta.Ranks)
	}
	if t.Meta.Ranks > MaxRanks {
		return fmt.Errorf("trace: %d ranks beyond the %d format bound", t.Meta.Ranks, MaxRanks)
	}
	nextSeq := make([]int, t.Meta.Ranks)
	prevRank := 0
	var totalCompute units.Time
	var totalBytes units.Size
	for i, r := range t.Records {
		if r.Rank < 0 || r.Rank >= t.Meta.Ranks {
			return fmt.Errorf("trace: record %d: rank %d outside %d ranks", i, r.Rank, t.Meta.Ranks)
		}
		if r.Rank < prevRank {
			return fmt.Errorf("trace: record %d: rank %d after rank %d (not canonical order)", i, r.Rank, prevRank)
		}
		prevRank = r.Rank
		if r.Seq != nextSeq[r.Rank] {
			return fmt.Errorf("trace: record %d: rank %d seq %d, want %d (dense per-rank order)",
				i, r.Rank, r.Seq, nextSeq[r.Rank])
		}
		nextSeq[r.Rank]++
		if !r.Kind.valid() {
			return fmt.Errorf("trace: record %d: unknown kind %q", i, string(r.Kind))
		}
		if r.Size < 0 {
			return fmt.Errorf("trace: %v: negative size", r)
		}
		if r.Size > MaxMessageSize {
			return fmt.Errorf("trace: %v: size beyond the %v format bound", r, MaxMessageSize)
		}
		if r.Duration < 0 {
			return fmt.Errorf("trace: %v: negative duration", r)
		}
		if r.Duration > MaxComputeDuration {
			return fmt.Errorf("trace: %v: duration beyond the %v format bound", r, MaxComputeDuration)
		}
		if totalCompute += r.Duration; totalCompute > MaxTotalCompute {
			return fmt.Errorf("trace: total compute beyond the %v format bound", MaxTotalCompute)
		}
		if totalBytes += r.Size; totalBytes > MaxTotalBytes {
			return fmt.Errorf("trace: total payload beyond the %v format bound", MaxTotalBytes)
		}
		if r.At < 0 {
			return fmt.Errorf("trace: %v: negative timestamp", r)
		}
		if r.Tag < 0 {
			return fmt.Errorf("trace: %v: negative tag", r)
		}
		switch r.Kind {
		case KindCompute:
			if r.Peer != NoPeer || r.Dep != NoDep || r.Size != 0 || r.Tag != 0 {
				return fmt.Errorf("trace: %v: compute with message fields set", r)
			}
		case KindSend:
			if r.Peer < 0 || r.Peer >= t.Meta.Ranks {
				return fmt.Errorf("trace: %v: peer outside %d ranks", r, t.Meta.Ranks)
			}
			if r.Dep != NoDep {
				return fmt.Errorf("trace: %v: send with dep set", r)
			}
			if r.Duration != 0 {
				return fmt.Errorf("trace: %v: send with duration set", r)
			}
		case KindRecv:
			if r.Peer < 0 || r.Peer >= t.Meta.Ranks {
				return fmt.Errorf("trace: %v: peer outside %d ranks", r, t.Meta.Ranks)
			}
			if r.Dep < 0 {
				return fmt.Errorf("trace: %v: recv without dep", r)
			}
			if r.Duration != 0 {
				return fmt.Errorf("trace: %v: recv with duration set", r)
			}
		}
	}
	return t.validateMatching()
}

// validateMatching pairs sends with recvs per channel and runs the
// acyclicity check over the resulting dependency graph.
func (t *Trace) validateMatching() error {
	// Global index of each record, for graph edges.
	type ref struct {
		idx  int // index into t.Records
		size units.Size
		seq  int
	}
	sends := make(map[chanKey][]ref)
	recvs := make(map[chanKey][]ref)
	for i, r := range t.Records {
		switch r.Kind {
		case KindSend:
			k := chanKey{src: r.Rank, dst: r.Peer, tag: r.Tag}
			sends[k] = append(sends[k], ref{idx: i, size: r.Size, seq: r.Seq})
		case KindRecv:
			k := chanKey{src: r.Peer, dst: r.Rank, tag: r.Tag}
			recvs[k] = append(recvs[k], ref{idx: i, size: r.Size, seq: r.Seq})
		}
	}
	// sendEdge[i] is the recv record index the send at index i unblocks
	// (-1 for non-sends and the final sentinel).
	sendEdge := make([]int, len(t.Records))
	for i := range sendEdge {
		sendEdge[i] = -1
	}
	for k, ss := range sends {
		rs := recvs[k]
		if len(rs) != len(ss) {
			return fmt.Errorf("trace: channel %d->%d tag %d: %d sends but %d recvs",
				k.src, k.dst, k.tag, len(ss), len(rs))
		}
		for j, s := range ss {
			r := rs[j]
			rec := t.Records[r.idx]
			if rec.Dep != s.seq {
				return fmt.Errorf("trace: %v: dep %d, want seq %d of the matching send (FIFO on channel %d->%d tag %d)",
					rec, rec.Dep, s.seq, k.src, k.dst, k.tag)
			}
			if r.size != s.size {
				return fmt.Errorf("trace: %v: size %v but matching send carries %v", rec, r.size, s.size)
			}
			sendEdge[s.idx] = r.idx
		}
	}
	for k, rs := range recvs {
		if len(sends[k]) != len(rs) {
			return fmt.Errorf("trace: channel %d->%d tag %d: %d recvs but %d sends",
				k.src, k.dst, k.tag, len(rs), len(sends[k]))
		}
	}
	return t.validateAcyclic(sendEdge)
}

// validateAcyclic runs Kahn's algorithm over program-order and send→recv
// edges: if every record can be scheduled, no replay ordering can
// deadlock.
func (t *Trace) validateAcyclic(sendEdge []int) error {
	n := len(t.Records)
	indeg := make([]int, n)
	for i, r := range t.Records {
		if r.Seq > 0 {
			indeg[i]++ // program-order edge from the rank's previous record
		}
		if e := sendEdge[i]; e >= 0 {
			indeg[e]++
		}
	}
	queue := make([]int, 0, n)
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	done := 0
	for len(queue) > 0 {
		i := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		done++
		// Successors: the rank's next record, and the matched recv.
		if j := i + 1; j < n && t.Records[j].Rank == t.Records[i].Rank {
			indeg[j]--
			if indeg[j] == 0 {
				queue = append(queue, j)
			}
		}
		if e := sendEdge[i]; e >= 0 {
			indeg[e]--
			if indeg[e] == 0 {
				queue = append(queue, e)
			}
		}
	}
	if done != n {
		return fmt.Errorf("trace: dependency cycle: only %d of %d records schedulable (a replay would deadlock)", done, n)
	}
	return nil
}
