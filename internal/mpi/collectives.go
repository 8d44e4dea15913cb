package mpi

import "time"

// Collective algorithms. Earlier revisions implemented every collective
// as a flat rank-0 gather/broadcast — O(P) sequential hops on the
// critical path and O(vector·P) bytes through one mailbox — which has
// the wrong asymptotic shape for exactly the phenomenon the paper
// characterizes (Figures 5 and 12: MPI_Allreduce and kspace
// communication dominating at high rank counts). This file implements
// the scalable forms:
//
//   - Allreduce / AllreduceMax: recursive doubling with a binomial-tree
//     fold for non-power-of-two worlds — ceil(log2 P) (+2) rounds.
//   - Barrier: dissemination barrier, ceil(log2 P) zero-byte rounds,
//     charged natively to "others" so it never touches the Allreduce
//     bucket (the old reclassification hack drifted the Figure 5
//     accounting negative).
//   - ReduceScatterAllgather: recursive-halving reduce-scatter followed
//     by recursive-doubling allgather (the Rabenseifner butterfly) —
//     bandwidth-optimal at ~2·len·8·(P-1)/P bytes sent per rank, used
//     for the PPPM mesh and Ewald structure-factor reductions.
//
// Every hop is instrumented individually: send time and blocked receive
// time accumulate into the owning function's Time/WaitTime (no ad-hoc
// "half the call is waiting" heuristics), bytes count the send side
// only (each wire byte charged once world-wide, at its sender), and the
// per-rank sequential round count lands in FuncStats.Hops.

// Collective message tags live far below the user tag space (backends
// use small positive tags). Each primitive gets its own base; round
// indices offset downward from it, so repeated collectives between the
// same pair disambiguate by FIFO mailbox order while distinct rounds
// and primitives never collide.
const (
	tagTreeSum    = -1 << 12 // Allreduce (sum) doubling rounds
	tagTreeMax    = -2 << 12 // AllreduceMax doubling rounds
	tagBarrier    = -3 << 12 // dissemination barrier rounds
	tagButterfly  = -4 << 12 // reduce-scatter + allgather rounds
	tagCkpt       = -5 << 12 // distributed-checkpoint commit protocol
	tagFoldOffset = 1 << 8   // pre/post fold exchanges within a base
)

// Distributed-checkpoint commit tags (internal/ckpt's two-phase commit
// runs over ordinary Send/Recv on these reserved tags, so the commit
// rides any transport and hang diagnoses classify a rank parked in it
// as "ckpt-commit" rather than a bare send/recv).
const (
	// TagCkptVote carries one process' "shard durable" vote to rank 0.
	TagCkptVote = tagCkpt
	// TagCkptRelease is rank 0's release after the manifest is durable.
	TagCkptRelease = tagCkpt - 1
)

// collectiveForTag classifies a tag into the collective call it belongs
// to (hang diagnostics: a rank parked on a collective hop should read as
// parked in that collective, not in a bare send/recv). User tags are
// non-negative, so any negative tag falls in one base's downward range.
func collectiveForTag(tag int) (string, bool) {
	switch {
	case tag >= 0:
		return "", false
	case tag > tagTreeMax: // (tagTreeMax, 0): tree-sum rounds
		return "MPI_Allreduce", true
	case tag > tagBarrier: // (tagBarrier, tagTreeMax]: max rounds
		return "MPI_Allreduce", true
	case tag > tagButterfly: // (tagButterfly, tagBarrier]: barrier rounds
		return "MPI_Barrier", true
	case tag > tagCkpt: // (tagCkpt, tagButterfly]: butterfly rounds
		return "MPI_Allreduce", true
	default: // the distributed-checkpoint commit band
		return "ckpt-commit", true
	}
}

// collStats accumulates one collective call's per-hop instrumentation.
type collStats struct {
	sent int64         // payload bytes this rank sent
	hops int64         // sequential message rounds this rank traversed
	wait time.Duration // time blocked in receives
}

// collSend delivers one collective hop's payload (raw: accounted by the
// caller into the collective's own function bucket, not FuncSend). Like
// every send it borrows data only for the call, so a rank may fold its
// partner's contribution into data as soon as collSend returns. Bytes
// charged are the transport's wire bytes — the payload size in-process,
// framed size over TCP.
func (c *Comm) collSend(cs *collStats, dst, tag int, data []float64) {
	wire := c.deliver(dst, message{src: c.rank, tag: tag, bytes: 8 * len(data), lane: laneBorrowed, f64: data})
	cs.sent += int64(wire)
}

// collRecv blocks for one collective hop's payload, metering the wait.
func (c *Comm) collRecv(cs *collStats, src, tag int) []float64 {
	t0 := time.Now()
	data := c.recvMatch(src, tag).floatsInto(nil)
	cs.wait += time.Since(t0)
	return data
}

// allreduceTree combines data element-wise across all ranks with op,
// leaving the identical reduced vector on every rank. Worlds that are
// not a power of two fold the surplus ranks into the largest
// power-of-two subset first and unfold at the end (the MPICH
// discipline), so the critical path stays O(log2 P) rounds. Both
// partners of a doubling round evaluate op with swapped operands, so op
// must be commutative at the bit level (FP addition and max are) for
// all ranks to agree exactly — the decomposed engine's collective
// rebuild decisions depend on that agreement.
func (c *Comm) allreduceTree(data []float64, op func(a, b float64) float64, base int, cs *collStats) {
	n := c.world.Size
	if n == 1 {
		return
	}
	rank := c.rank
	pof2 := 1
	for pof2*2 <= n {
		pof2 *= 2
	}
	foldIn := base - tagFoldOffset
	foldOut := base - tagFoldOffset - 1
	if rank >= pof2 {
		// Surplus rank: hand the vector to the partner inside the
		// power-of-two group and wait for the reduced result.
		c.collSend(cs, rank-pof2, foldIn, data)
		cs.hops++
		res := c.collRecv(cs, rank-pof2, foldOut)
		cs.hops++
		copy(data, res)
		return
	}
	if rank+pof2 < n {
		part := c.collRecv(cs, rank+pof2, foldIn)
		cs.hops++
		for i, v := range part {
			data[i] = op(data[i], v)
		}
	}
	for round, mask := 0, 1; mask < pof2; round, mask = round+1, mask<<1 {
		partner := rank ^ mask
		c.collSend(cs, partner, base-round, data)
		part := c.collRecv(cs, partner, base-round)
		cs.hops++
		for i, v := range part {
			data[i] = op(data[i], v)
		}
	}
	if rank+pof2 < n {
		c.collSend(cs, rank+pof2, foldOut, data)
		cs.hops++
	}
}

// finishCollective files one collective call's instrumentation under f.
func (c *Comm) finishCollective(f Func, name string, t0 time.Time, cs *collStats) {
	el := time.Since(t0)
	st := &c.Stats.Funcs[f]
	st.Calls++
	st.Bytes += cs.sent
	st.Hops += cs.hops
	st.Time += el
	st.WaitTime += cs.wait
	if c.span != nil {
		c.span.Comm(name, t0, el, cs.sent, -1)
	}
}

// Allreduce sums data element-wise across all ranks; every rank returns
// with the identical reduced vector written back into data.
func (c *Comm) Allreduce(data []float64) {
	t0 := time.Now()
	var cs collStats
	c.allreduceTree(data, func(a, b float64) float64 { return a + b }, tagTreeSum, &cs)
	c.finishCollective(FuncAllreduce, "MPI_Allreduce", t0, &cs)
}

// AllreduceScalar sums one value across ranks.
func (c *Comm) AllreduceScalar(v float64) float64 {
	buf := []float64{v}
	c.Allreduce(buf)
	return buf[0]
}

// AllreduceMax computes the element-wise max across ranks (used for the
// global neighbor-rebuild decision).
func (c *Comm) AllreduceMax(v float64) float64 {
	t0 := time.Now()
	buf := []float64{v}
	var cs collStats
	c.allreduceTree(buf, func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	}, tagTreeMax, &cs)
	c.finishCollective(FuncAllreduce, "MPI_Allreduce", t0, &cs)
	return buf[0]
}

// Barrier synchronizes all ranks with a dissemination barrier: in round
// k every rank signals rank+2^k and waits for rank-2^k (mod P), so all
// ranks have transitively heard from all others after ceil(log2 P)
// zero-byte rounds. Charged natively to "others" — the Allreduce bucket
// is untouched, byte-for-byte.
func (c *Comm) Barrier() {
	t0 := time.Now()
	n := c.world.Size
	var cs collStats
	for round, dist := 0, 1; dist < n; round, dist = round+1, dist*2 {
		to := (c.rank + dist) % n
		from := (c.rank - dist + n) % n
		c.collSend(&cs, to, tagBarrier-round, nil)
		c.collRecv(&cs, from, tagBarrier-round)
		cs.hops++
	}
	c.finishCollective(FuncOther, "MPI_Barrier", t0, &cs)
}

// ReduceScatterAllgather sums data element-wise across all ranks like
// Allreduce, but with the bandwidth-optimal butterfly: a
// recursive-halving reduce-scatter leaves each rank owning the reduced
// values of one 1/P segment, and a recursive-doubling allgather
// redistributes the full vector. Per rank that is ~2·len·8·(P-1)/P
// bytes sent over 2·log2 P rounds — versus the O(len·P) through rank 0
// that a flat gather costs — which is the message/byte shape LAMMPS'
// distributed PPPM mesh reduction has at scale. Returns this rank's
// sequential hop count and bytes sent so callers (the domain backend)
// can meter kspace communication separately.
func (c *Comm) ReduceScatterAllgather(data []float64) (hops int, bytes int64) {
	t0 := time.Now()
	var cs collStats
	if c.world.Size > 1 {
		c.butterflyReduce(data, &cs)
	}
	c.finishCollective(FuncAllreduce, "MPI_Allreduce", t0, &cs)
	return int(cs.hops), cs.sent
}

// butterflyReduce runs the non-trivial (P > 1) reduce-scatter +
// allgather, folding surplus ranks like allreduceTree.
func (c *Comm) butterflyReduce(data []float64, cs *collStats) {
	n, rank := c.world.Size, c.rank
	pof2 := 1
	for pof2*2 <= n {
		pof2 *= 2
	}
	foldIn := tagButterfly - tagFoldOffset
	foldOut := tagButterfly - tagFoldOffset - 1
	if rank >= pof2 {
		c.collSend(cs, rank-pof2, foldIn, data)
		cs.hops++
		res := c.collRecv(cs, rank-pof2, foldOut)
		cs.hops++
		copy(data, res)
		return
	}
	if rank+pof2 < n {
		part := c.collRecv(cs, rank+pof2, foldIn)
		cs.hops++
		for i, v := range part {
			data[i] += v
		}
	}

	// Reduce-scatter by recursive halving. Partners at each level share
	// the same segment bounds (they diverged only at higher bits), so
	// both compute the same midpoint; the lower-numbered half keeps the
	// lower sub-segment. The bounds stack replays in reverse for the
	// allgather.
	type seg struct{ lo, hi int }
	var stack []seg
	lo, hi := 0, len(data)
	round := 0
	for mask := pof2 >> 1; mask > 0; mask >>= 1 {
		partner := rank ^ mask
		mid := lo + (hi-lo)/2
		stack = append(stack, seg{lo, hi})
		sendLo, sendHi := mid, hi
		keepLo, keepHi := lo, mid
		if rank&mask != 0 {
			sendLo, sendHi = lo, mid
			keepLo, keepHi = mid, hi
		}
		c.collSend(cs, partner, tagButterfly-round, data[sendLo:sendHi])
		part := c.collRecv(cs, partner, tagButterfly-round)
		cs.hops++
		round++
		for i, v := range part {
			data[keepLo+i] += v
		}
		lo, hi = keepLo, keepHi
	}

	// Allgather by recursive doubling, popping the same partner sequence
	// in reverse. Each rank's segment now holds final reduced values —
	// computed by exactly one owner — so every rank reassembles a
	// bit-identical full vector.
	for mask := 1; mask < pof2; mask <<= 1 {
		partner := rank ^ mask
		parent := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		c.collSend(cs, partner, tagButterfly-round, data[lo:hi])
		part := c.collRecv(cs, partner, tagButterfly-round)
		cs.hops++
		round++
		if lo == parent.lo {
			copy(data[hi:parent.hi], part)
		} else {
			copy(data[parent.lo:lo], part)
		}
		lo, hi = parent.lo, parent.hi
	}

	if rank+pof2 < n {
		c.collSend(cs, rank+pof2, foldOut, data)
		cs.hops++
	}
}
