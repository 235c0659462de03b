package trace

import (
	"sort"

	"roadrunner/internal/units"
)

// PairTraffic aggregates the placement-independent traffic of one
// directed rank pair: every quantity here is a property of the trace
// alone, so an analytic cost model can precompute it once and reuse it
// for every candidate rank→node mapping.
type PairTraffic struct {
	// Src and Dst are the sending and receiving ranks.
	Src, Dst int
	// Msgs counts the messages sent Src→Dst, Rendezvous the subset above
	// the eager threshold (each pays the rendezvous round trip before
	// streaming), Bytes their summed payload.
	Msgs       int64
	Rendezvous int64
	Bytes      units.Size
	// CritMsgs, CritRdv and CritBytes are the same three quantities
	// restricted to the Src→Dst messages whose send→recv edge the
	// trace's critical dependency chain crosses
	// (TrafficMatrix.CritMsgs documents the chain).
	CritMsgs  int64
	CritRdv   int64
	CritBytes units.Size
	// PathMsgs, PathRdv and PathBytes count the Src→Dst sends whose
	// send records lie on the chain path itself (reached through Src's
	// program order): a blocking sender serializes each of these —
	// overhead, any rendezvous trip and the payload stream — into the
	// chain even when the chain continues through its own next record
	// rather than across the message. Every crossed edge's send is on
	// the path, so Crit* ⊆ Path* per pair.
	PathMsgs  int64
	PathRdv   int64
	PathBytes units.Size
}

// TrafficMatrix is the placement-independent traffic summary of a
// validated trace: per-directed-rank-pair message/byte/rendezvous
// counts plus the critical dependency chain through the trace's DAG
// (program order + send→recv edges). It is the precompute an analytic
// placement-cost surrogate folds through a topology's routes: the pair
// totals become per-link offered load under a candidate mapping, and
// the critical-chain terms bound the serial latency no mapping can
// remove.
type TrafficMatrix struct {
	// Ranks is the trace's rank count.
	Ranks int
	// Pairs holds every directed rank pair that carried at least one
	// message, in canonical order (Src-major, Dst-minor).
	Pairs []PairTraffic
	// Msgs, Rendezvous and Bytes are the trace-wide totals over Pairs.
	Msgs       int64
	Rendezvous int64
	Bytes      units.Size
	// CritMsgs, CritRdv, CritBytes and CritCompute describe the critical
	// chain: the dependency path maximizing (message edges, then bytes,
	// then compute) through the DAG — for a wavefront schedule like
	// Sweep3D, the longest relay of sends a replay must serialize. A
	// chain message appears in both the chain terms and its pair's
	// Crit* fields.
	CritMsgs    int64
	CritRdv     int64
	CritBytes   units.Size
	CritCompute units.Time
	// RankCompute is each rank's compute total; MaxRankCompute the
	// largest of them — the compute-only lower bound on any replay's
	// makespan.
	RankCompute    []units.Time
	MaxRankCompute units.Time

	m *match // the trace's validated match, read by Partner
}

// Partner returns the record index of record i's FIFO partner in the
// trace the matrix was computed from: a recv's matching send, a send's
// matching recv, or -1 for a compute record.
func (m *TrafficMatrix) Partner(i int) int { return int(m.m.peer[i]) }

// Traffic computes the trace's placement-independent traffic matrix.
// eager is the transport profile's eager threshold (messages strictly
// above it are counted as rendezvous). It reads the trace's validated
// match (validating first when the trace carries none); the matrix of
// an invalid trace is an error, never a panic.
func (t *Trace) Traffic(eager units.Size) (*TrafficMatrix, error) {
	mt, err := t.matched()
	if err != nil {
		return nil, err
	}
	n := len(t.Records)
	m := &TrafficMatrix{Ranks: t.Meta.Ranks, m: mt}

	// Pair aggregation, keyed by directed rank pair. Records are in
	// canonical order, so iterating them makes the totals deterministic.
	pairIdx := make(map[int64]int)
	pairAt := func(src, dst int) *PairTraffic {
		k := int64(src)*int64(m.Ranks) + int64(dst)
		i, ok := pairIdx[k]
		if !ok {
			i = len(m.Pairs)
			pairIdx[k] = i
			m.Pairs = append(m.Pairs, PairTraffic{Src: src, Dst: dst})
		}
		return &m.Pairs[i]
	}
	m.RankCompute = make([]units.Time, m.Ranks)
	for _, r := range t.Records {
		switch r.Kind {
		case KindCompute:
			m.RankCompute[r.Rank] += r.Duration
		case KindSend:
			p := pairAt(r.Rank, r.Peer)
			p.Msgs++
			p.Bytes += r.Size
			m.Msgs++
			m.Bytes += r.Size
			if r.Size > eager {
				p.Rendezvous++
				m.Rendezvous++
			}
		}
	}
	for _, c := range m.RankCompute {
		if c > m.MaxRankCompute {
			m.MaxRankCompute = c
		}
	}

	// Longest-chain DP in the match's topological order: each record's
	// chain value is the best over its program-order predecessor and
	// (for a recv) its matching send, a message edge adding (1 msg, its
	// bytes); the record's own compute is then folded in. The value at
	// a node is fixed once its predecessors are, so the result does not
	// depend on which topological order runs it. Ties prefer the
	// program-order predecessor, making the backtracked chain
	// deterministic.
	chMsgs := make([]int64, n)
	chBytes := make([]units.Size, n)
	chComp := make([]units.Time, n)
	parent := make([]int32, n)
	viaMsg := make([]bool, n)
	// better reports whether chain value a strictly beats b.
	better := func(am int64, ab units.Size, ac units.Time, bm int64, bb units.Size, bc units.Time) bool {
		if am != bm {
			return am > bm
		}
		if ab != bb {
			return ab > bb
		}
		return ac > bc
	}
	for _, i := range mt.order {
		r := t.Records[i]
		parent[i] = -1
		if r.Seq > 0 {
			p := i - 1 // canonical order: the rank's previous record
			chMsgs[i], chBytes[i], chComp[i], parent[i] = chMsgs[p], chBytes[p], chComp[p], p
		}
		if r.Kind == KindRecv {
			s := mt.peer[i]
			cm, cb, cc := chMsgs[s]+1, chBytes[s]+r.Size, chComp[s]
			if parent[i] < 0 || better(cm, cb, cc, chMsgs[i], chBytes[i], chComp[i]) {
				chMsgs[i], chBytes[i], chComp[i] = cm, cb, cc
				parent[i], viaMsg[i] = s, true
			}
		}
		chComp[i] += r.Duration
	}

	// The chain end: the record with the maximal chain value (lowest
	// index on ties), backtracked through parent, marking each message
	// edge on its pair.
	end := -1
	for i := 0; i < n; i++ {
		if end < 0 || better(chMsgs[i], chBytes[i], chComp[i], chMsgs[end], chBytes[end], chComp[end]) {
			end = i
		}
	}
	if end >= 0 {
		m.CritMsgs, m.CritBytes, m.CritCompute = chMsgs[end], chBytes[end], chComp[end]
		for i := int32(end); i >= 0; i = parent[i] {
			r := t.Records[i]
			if viaMsg[i] {
				// A crossed send→recv edge; r is the recv.
				p := pairAt(r.Peer, r.Rank)
				p.CritMsgs++
				p.CritBytes += r.Size
				if r.Size > eager {
					p.CritRdv++
					m.CritRdv++
				}
			}
			if r.Kind == KindSend {
				// A send record on the path: the blocking sender
				// serializes it whether or not the chain crosses it.
				p := pairAt(r.Rank, r.Peer)
				p.PathMsgs++
				p.PathBytes += r.Size
				if r.Size > eager {
					p.PathRdv++
				}
			}
		}
	}

	sort.Slice(m.Pairs, func(i, j int) bool {
		a, b := m.Pairs[i], m.Pairs[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Dst < b.Dst
	})
	return m, nil
}
