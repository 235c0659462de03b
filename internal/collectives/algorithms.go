package collectives

import (
	"roadrunner/internal/sim"
	"roadrunner/internal/units"
)

// semanticLen is the length of the small validated payload vector
// carried by broadcast and the full-vector allreduce algorithms. It is
// deliberately independent of the modeled wire size: correctness rides
// on a handful of exactly-representable values while the timing model
// streams the configured byte count.
const semanticLen = 16

// Tag spaces. Each comm serves exactly one collective, so tags only need
// to be unique within one algorithm: fold/unfold frame the non-power-of-
// two reduction, step/gather number rounds within a phase.
const (
	tagBcast  = 1 << 20
	tagFold   = 2 << 20
	tagUnfold = 3 << 20
	tagStep   = 4 << 20
	tagGather = 5 << 20
)

// algorithms maps each Op to its rank body. Every body is executed by
// all ranks concurrently as sim.Procs and returns the rank's final
// semantic payload.
var algorithms = map[Op]func(*comm, *sim.Proc, int, units.Size) []float64{
	BcastBinomial:              bcastBinomial,
	BarrierRecursiveDoubling:   barrierRecursiveDoubling,
	AllreduceRecursiveDoubling: allreduceRecursiveDoubling,
	AllreduceRabenseifner:      allreduceRabenseifner,
	AllreduceRing:              allreduceRing,
	AllgatherRing:              allgatherRing,
	AlltoallPairwise:           alltoallPairwise,
}

func cloneSlice(v []float64) []float64 { return append([]float64(nil), v...) }

// addInto folds b elementwise into a.
func addInto(a, b []float64) {
	for i := range b {
		a[i] += b[i]
	}
}

// floorPow2 returns the largest power of two <= n (n >= 1).
func floorPow2(n int) int {
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
}

// realRank maps a participant index of the power-of-two phase back to
// its actual rank under the MPICH fold: participants below rem are the
// odd ranks of the fold region, the rest sit above it.
func realRank(newrank, rem int) int {
	if newrank < rem {
		return 2*newrank + 1
	}
	return newrank + rem
}

// sizeFrac returns ceil(size * num / den) bytes, the wire size of a
// message carrying num of den virtual segments.
func sizeFrac(size units.Size, num, den int) units.Size {
	if num <= 0 || size <= 0 {
		return 0
	}
	return units.Size((int64(size)*int64(num) + int64(den) - 1) / int64(den))
}

// bcastBinomial is the binomial-tree broadcast: ceil(log2 P) levels, the
// root sending to progressively closer subtree roots, each forwarding
// down its subtree. Hop-limited latency grows with the tree depth; every
// edge carries the full payload.
func bcastBinomial(c *comm, p *sim.Proc, r int, size units.Size) []float64 {
	n := len(c.cfg.Places)
	root := c.cfg.Root
	rel := (r - root + n) % n
	var data []float64
	if rel == 0 {
		data = make([]float64, semanticLen)
		for i := range data {
			data[i] = contribution(root, i)
		}
	} else {
		// The parent is rel with its highest set bit cleared.
		h := 1
		for h*2 <= rel {
			h *= 2
		}
		src := (rel - h + root) % n
		data = c.recv(p, r, src, tagBcast)
	}
	h := 1
	for h <= rel {
		h *= 2
	}
	for ; rel+h < n; h *= 2 {
		dst := (rel + h + root) % n
		c.send(p, r, dst, tagBcast, size, data)
	}
	return data
}

// barrierRecursiveDoubling is the dissemination form of the
// recursive-doubling barrier, which handles any rank count in exactly
// ceil(log2 P) rounds: in round k every rank signals (r + 2^k) mod P and
// waits for (r - 2^k) mod P. No payload moves; the cost is pure software
// overhead and hop latency per round.
func barrierRecursiveDoubling(c *comm, p *sim.Proc, r int, _ units.Size) []float64 {
	n := len(c.cfg.Places)
	for k, dist := 0, 1; dist < n; k, dist = k+1, dist*2 {
		dst := (r + dist) % n
		src := (r - dist + n) % n
		c.sendrecv(p, r, dst, tagStep+k, 0, nil, src, tagStep+k)
	}
	return nil
}

// foldDown runs the MPICH pre-phase for non-power-of-two rank counts:
// even ranks below 2*rem ship their vector to the odd rank above and sit
// out; odd ranks fold it in and join the power-of-two phase. Returns the
// participant index, or -1 for ranks that sat out.
func foldDown(c *comm, p *sim.Proc, r int, size units.Size, vec []float64, rem int) int {
	switch {
	case r < 2*rem && r%2 == 0:
		c.send(p, r, r+1, tagFold, size, cloneSlice(vec))
		return -1
	case r < 2*rem:
		addInto(vec, c.recv(p, r, r-1, tagFold))
		return r / 2
	default:
		return r - rem
	}
}

// foldUp runs the post-phase: odd ranks of the fold region return the
// finished vector to the even rank that sat out.
func foldUp(c *comm, p *sim.Proc, r int, size units.Size, vec []float64, rem int) []float64 {
	if r >= 2*rem {
		return vec
	}
	if r%2 == 0 {
		return c.recv(p, r, r+1, tagUnfold)
	}
	c.send(p, r, r-1, tagUnfold, size, cloneSlice(vec))
	return vec
}

// allreduceRecursiveDoubling exchanges and folds full vectors between
// pairs at doubling distances: log2 P rounds, each moving the whole
// payload. Latency-optimal for small messages; bandwidth-poor for large
// ones (every round retransmits everything).
func allreduceRecursiveDoubling(c *comm, p *sim.Proc, r int, size units.Size) []float64 {
	n := len(c.cfg.Places)
	vec := make([]float64, semanticLen)
	for i := range vec {
		vec[i] = contribution(r, i)
	}
	pof2 := floorPow2(n)
	rem := n - pof2
	newrank := foldDown(c, p, r, size, vec, rem)
	if newrank >= 0 {
		for step, mask := 0, 1; mask < pof2; step, mask = step+1, mask*2 {
			partner := realRank(newrank^mask, rem)
			addInto(vec, c.sendrecv(p, r, partner, tagStep+step, size, cloneSlice(vec), partner, tagStep+step))
		}
	}
	return foldUp(c, p, r, size, vec, rem)
}

// allreduceRabenseifner is reduce-scatter by recursive halving followed
// by allgather by recursive doubling: each halving round exchanges half
// of the remaining range, so total traffic is ~2*size*(1-1/P) per rank
// instead of recursive doubling's size*log2(P) — the large-message
// algorithm of the MPICH/Open MPI lineage.
func allreduceRabenseifner(c *comm, p *sim.Proc, r int, size units.Size) []float64 {
	n := len(c.cfg.Places)
	vec := make([]float64, semanticLen)
	for i := range vec {
		vec[i] = contribution(r, i)
	}
	pof2 := floorPow2(n)
	rem := n - pof2
	newrank := foldDown(c, p, r, size, vec, rem)
	if newrank >= 0 {
		// level records one halving so the allgather can mirror it. The
		// virtual range (vlo, vhi) over pof2 segments models the wire
		// size; the real range (lo, hi) over the semantic vector carries
		// the validated values.
		type level struct {
			lo, mid, hi    int
			vlo, vmid, vhi int
			keptLow        bool
		}
		lo, hi := 0, semanticLen
		vlo, vhi := 0, pof2
		var stack []level
		step := 0
		for mask := pof2 / 2; mask >= 1; mask /= 2 {
			partner := realRank(newrank^mask, rem)
			mid := lo + (hi-lo)/2
			vmid := vlo + (vhi-vlo)/2
			keepLow := newrank&mask == 0
			sendLo, sendHi, sendV := mid, hi, vhi-vmid
			recvLo := lo
			if !keepLow {
				sendLo, sendHi, sendV = lo, mid, vmid-vlo
				recvLo = mid
			}
			addInto(vec[recvLo:], c.sendrecv(p, r, partner, tagStep+step, sizeFrac(size, sendV, pof2),
				cloneSlice(vec[sendLo:sendHi]), partner, tagStep+step))
			stack = append(stack, level{lo, mid, hi, vlo, vmid, vhi, keepLow})
			if keepLow {
				hi, vhi = mid, vmid
			} else {
				lo, vlo = mid, vmid
			}
			step++
		}
		// Allgather mirrors the halvings innermost-out: at each level the
		// pair exchanges owned ranges, doubling what both hold.
		for i := len(stack) - 1; i >= 0; i-- {
			lv := stack[i]
			mask := pof2 >> (i + 1)
			partner := realRank(newrank^mask, rem)
			ownLo, ownHi, ownV := lv.lo, lv.mid, lv.vmid-lv.vlo
			otherLo := lv.mid
			if !lv.keptLow {
				ownLo, ownHi, ownV = lv.mid, lv.hi, lv.vhi-lv.vmid
				otherLo = lv.lo
			}
			copy(vec[otherLo:], c.sendrecv(p, r, partner, tagGather+i, sizeFrac(size, ownV, pof2),
				cloneSlice(vec[ownLo:ownHi]), partner, tagGather+i))
		}
	}
	return foldUp(c, p, r, size, vec, rem)
}

// allreduceRing is the bandwidth-optimal ring: a reduce-scatter pass
// then an allgather pass, each P-1 steps moving size/P bytes, so every
// rank sends ~2*size total regardless of P — at the price of 2(P-1)
// latency terms. The semantic vector has one element per segment.
func allreduceRing(c *comm, p *sim.Proc, r int, size units.Size) []float64 {
	n := len(c.cfg.Places)
	vec := make([]float64, n)
	for i := range vec {
		vec[i] = contribution(r, i)
	}
	if n == 1 {
		return vec
	}
	next, prev := (r+1)%n, (r-1+n)%n
	segSize := sizeFrac(size, 1, n)
	// Reduce-scatter: after step s every rank has folded one more
	// segment; after n-1 steps rank r fully owns segment (r+1) mod n.
	for s := 0; s < n-1; s++ {
		sendSeg := ((r-s)%n + n) % n
		recvSeg := ((r-s-1)%n + n) % n
		vec[recvSeg] += c.sendrecv(p, r, next, tagStep+s, segSize, []float64{vec[sendSeg]}, prev, tagStep+s)[0]
	}
	// Allgather: circulate the finished segments.
	for s := 0; s < n-1; s++ {
		sendSeg := ((r+1-s)%n + n) % n
		recvSeg := ((r-s)%n + n) % n
		vec[recvSeg] = c.sendrecv(p, r, next, tagGather+s, segSize, []float64{vec[sendSeg]}, prev, tagGather+s)[0]
	}
	return vec
}

// allgatherRing circulates each rank's block around the ring: P-1 steps
// of size bytes each (size is the per-rank contribution).
func allgatherRing(c *comm, p *sim.Proc, r int, size units.Size) []float64 {
	n := len(c.cfg.Places)
	vec := make([]float64, n)
	vec[r] = contribution(r, 0)
	if n == 1 {
		return vec
	}
	next, prev := (r+1)%n, (r-1+n)%n
	for s := 0; s < n-1; s++ {
		sendSeg := ((r-s)%n + n) % n
		recvSeg := ((r-s-1)%n + n) % n
		vec[recvSeg] = c.sendrecv(p, r, next, tagStep+s, size, []float64{vec[sendSeg]}, prev, tagStep+s)[0]
	}
	return vec
}

// alltoallPairwise exchanges personalized blocks in P-1 rounds: in round
// k rank r sends its block for (r+k) mod P and receives from (r-k) mod P
// (size is the per-destination block). Total traffic per rank grows
// linearly in P — the algorithm that most stresses the 2:1 taper.
func alltoallPairwise(c *comm, p *sim.Proc, r int, size units.Size) []float64 {
	n := len(c.cfg.Places)
	out := make([]float64, n)
	out[r] = contribution(r, r)
	for k := 1; k < n; k++ {
		dst := (r + k) % n
		src := (r - k + n) % n
		out[src] = c.sendrecv(p, r, dst, tagStep+k, size, []float64{contribution(r, dst)}, src, tagStep+k)[0]
	}
	return out
}
