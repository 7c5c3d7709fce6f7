package core

import (
	"fmt"
	"sync"
	"time"

	"dynshap/internal/bitset"
	"dynshap/internal/game"
	"dynshap/internal/rng"
)

// This file implements the batched update walk: for a batch of k pending
// points, each sampled permutation is walked ONCE, with all k points
// evaluated against shared prefix state, instead of k separate τ-walks
// each re-deriving its prefixes.
//
// Two passes, one per addition family:
//
//   - BatchDeltaAdd shares the no-pivot chain. A per-point delta
//     addition pays two prefix walks per permutation (with and without the
//     new point), but the without-chain is the SAME walk for every pending
//     point — so the producer walks it once per permutation and the k
//     with-chains read its utilities from a buffer, cutting the evaluation
//     count from 2·k·n to (k+1)·n per permutation before any parallelism.
//
//   - BatchAddSame shares the stored-permutation evolution. The producer
//     threads each stored permutation through all k pivot insertions
//     (slot draws in arrival order), and the k suffix walks — one per
//     pending point — proceed independently from the recorded insertion
//     slots.
//
// Parallelism stripes over the PENDING POINTS, not the permutations:
// every per-point accumulator (dsv_j, rsv_j, dlsv_j, newSV_j) is owned by
// exactly one worker, which processes chunks in issue order and
// permutations in order within a chunk, so each accumulator receives its
// floating-point additions in exactly the sequential reference's order.
// All randomness is consumed in the producer, in the reference's
// per-source order. Together that makes both passes bit-identical to
// their batch.go references — and, for the pivot form, to k successive
// AddSame calls — at any worker count.
//
// A single pending point (k = 1) is the paper's per-point Algorithm 5, so
// BatchDeltaAdd at k = 1 is THE delta addition: it carries the engine's
// empirical-Bernstein adaptive stop (WithTargetError), observing exactly
// the per-player differential contributions and the new point's
// per-permutation value, and checking the bound at chunk boundaries. At
// k > 1 the stopping decision would couple the points' budgets (they share
// permutations), and journals recorded batched updates without it, so a
// multi-point batch always spends its full τ (Issued == Budget).
// BatchAddSame never stops early: its τ is the stored permutation count.

// batchScratch holds the batched walks' cached buffers (see the Engine
// field's doc for the ownership argument).
type batchScratch struct {
	perm  []int
	utils []float64
	dsv   [][]float64
	rsv   [][]float64
	dlsv  [][]float64
	steps []pivotBatchStep

	deltaSlots []*deltaBatchChunk
	pivotSlots []*pivotBatchChunk
	delSlots   []*deleteSameChunk
}

// reuseInts returns a length-n int buffer, reusing s's storage when it
// fits. Contents are unspecified — callers overwrite before reading.
func reuseInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// reuseFloats is reuseInts for float64 buffers.
func reuseFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// zeroMat returns a k×n matrix of zeroed accumulators, reusing *dst's
// rows when they fit.
func zeroMat(dst *[][]float64, k, n int) [][]float64 {
	m := *dst
	if cap(m) < k {
		grown := make([][]float64, k)
		copy(grown, m[:cap(m)])
		m = grown
	} else {
		m = m[:k]
	}
	for j := range m {
		if cap(m[j]) < n {
			m[j] = make([]float64, n)
		} else {
			m[j] = m[j][:n]
			clear(m[j])
		}
	}
	*dst = m
	return m
}

// BatchDeltaAdd runs the batched delta addition (Algorithm 5 generalised
// to k pending points): gPlus is the (n+k)-player updated game whose last
// k players are the pending points in arrival order, oldSV the n
// pre-batch values. It returns n+k entries: every original player's value
// adjusted by the k points' summed deltas (folded in arrival order), and
// one fresh estimate per pending point. Bit-identical to BatchDeltaAddSeq
// for the same seed at every worker count.
//
// At k = 1 this is the single-point delta addition — estimate the CHANGE
// ∆SV_i of every original player from differential marginal contributions
//
//	DMC(S, i) = [U(S∪{z_new}∪{z_i}) − U(S∪{z_i})] − [U(S∪{z_new}) − U(S)],
//
// whose range is typically far smaller than that of raw marginals, so by
// Hoeffding's inequality (Theorem 2) the same accuracy needs fewer
// permutations. It is the only form that honours WithTargetError.
//
// Deviation from the paper's pseudocode: Algorithm 5 (line 8) estimates the
// new point's own value by averaging its marginal contributions over prefix
// sizes 1..n with weight 1/n, which both skips the S=∅ stratum and
// mis-normalises Eq. (2); we include the empty stratum and divide by n+1,
// which makes the estimator unbiased (verified against exact enumeration in
// the tests).
func (e *Engine) BatchDeltaAdd(gPlus game.Game, oldSV []float64, k, tau int, r *rng.Source) ([]float64, error) {
	n := len(oldSV)
	if err := checkBatchAdd(gPlus, n, k); err != nil {
		return nil, err
	}
	if tau <= 0 {
		return nil, fmt.Errorf("core: BatchDeltaAdd requires tau > 0, got %d", tau)
	}
	m := n + k
	workers := e.effectiveWorkers(k)
	e.stats = EngineStats{Budget: tau, Workers: workers}
	e.headVals = nil

	uEmpty := gPlus.Value(bitset.New(m))
	uPivot := make([]float64, k)
	for j := 0; j < k; j++ {
		uPivot[j] = gPlus.Value(bitset.FromIndices(m, n+j))
	}
	dsv := zeroMat(&e.scratch.dsv, k, n)
	newSV := make([]float64, k)
	// Extra heads mirror the Shapley batch semantics: each pending point's
	// head differential is measured against the shared n-player no-pivot
	// chain (the same n → n+1 tables for every j) and the deltas are summed
	// in arrival order at the end. Each point's sums are owned by exactly
	// one worker, like its dsv/newSV.
	ht := newAddHeadTables(e.heads, n)
	var hsums []*addHeadSums
	if ht != nil {
		hsums = make([]*addHeadSums, k)
		for j := range hsums {
			hsums[j] = newAddHeadSums(ht, n)
		}
	}
	var trk *adaptiveTracker
	if k == 1 && e.adaptive() {
		trk = newAdaptiveTracker(m, e.eps, e.delta)
	}

	start := time.Now()
	// The permutations range over the n old players, which are their own
	// indices in gPlus.
	issued := e.runSharedChain(gPlus, batchSurvivors(n, nil), k, tau, r, workers, trk,
		func(w *prefixWalker, perm []int, utils []float64, j int) {
			var hs *addHeadSums
			if hsums != nil {
				hs = hsums[j]
			}
			batchDeltaStep(w, perm, utils, uEmpty, uPivot[j], n+j, n, dsv[j], &newSV[j], hs, trk)
		})
	e.stats.Seconds = time.Since(start).Seconds()
	e.stats.Issued = issued
	e.stats.EarlyStop = issued < tau
	if trk != nil {
		e.stats.Bound = trk.lastBound
	}
	e.stats.Updates = int64(issued) * int64(k) * int64(n)

	out := make([]float64, m)
	copy(out, oldSV)
	for j := 0; j < k; j++ {
		for i := 0; i < n; i++ {
			out[i] += dsv[j][i] / float64(issued)
		}
		out[n+j] = newSV[j] / float64(issued) / float64(n+1)
	}
	if hsums != nil {
		hv := make([][]float64, len(e.heads))
		for h := range e.heads {
			vals := make([]float64, m)
			if e.headBase != nil && h < len(e.headBase) {
				copy(vals, e.headBase[h])
			}
			for j := 0; j < k; j++ {
				for i := 0; i < n; i++ {
					vals[i] += hsums[j].sums[h][i] / float64(issued)
				}
				vals[n+j] = hsums[j].pivot[h] / float64(issued)
			}
			hv[h] = vals
		}
		e.headVals = hv
	}
	return out, nil
}

// batchDeltaStep runs one pending point's with-chain over one walked
// permutation, reading the no-pivot chain's utilities from the shared
// buffer. trk (non-nil only for an adaptive single-point pass) observes
// each old player's weighted differential and, once per permutation, the
// new point's stratified value, then closes the sample.
func batchDeltaStep(w *prefixWalker, perm []int, utils []float64, uEmpty, uPivot float64, pivot, n int, dsv []float64, newSV *float64, hs *addHeadSums, trk *adaptiveTracker) {
	w.reset()
	prevNo := uEmpty
	prevWith := w.seed(pivot, uPivot)
	d0 := prevWith - prevNo
	*newSV += d0 // S=∅ stratum of the new point's value
	permNew := d0
	if hs != nil {
		hs.foldD0(d0)
	}
	for pos, p := range perm {
		curNo := utils[pos]
		curWith := w.add(p)
		dmc := (curWith - curNo) - (prevWith - prevNo)
		// Stratified weight (|S|+1)/(n+1) with |S| = pos (Lemma 2 /
		// Theorem 2): the scan visits each prefix size exactly once.
		x := dmc * float64(pos+1) / float64(n+1)
		dsv[p] += x
		if trk != nil {
			trk.observe(p, x)
		}
		dd := curWith - curNo
		*newSV += dd
		permNew += dd
		if hs != nil {
			hs.foldPos(pos, p, curNo-prevNo, curWith-prevWith, dd)
		}
		prevNo, prevWith = curNo, curWith
	}
	if trk != nil {
		trk.observe(pivot, permNew/float64(n+1))
		trk.endSample()
	}
}

// deltaBatchChunk is one batch of walked permutations in flight between
// the producer and the point-striped workers.
type deltaBatchChunk struct {
	count int
	perms [][]int
	utils [][]float64
	wg    sync.WaitGroup
}

// runSharedChain drives both delta batch walks. Permutations are drawn
// over indices into players (the pool every pending point's chains walk);
// per permutation the producer walks the shared chain — the players
// without any pending point — once into a utility buffer, and step runs
// pending point j's own chain against it on walker w. It returns the
// permutations issued.
//
// With one worker everything runs inline, and a non-nil trk (single-point
// passes only) may end the pass at a chunk boundary. Otherwise worker w
// owns the contiguous point stripe jlo ≤ j < jhi with its own walker and
// drains double-buffered chunks in issue order: each point's accumulators
// are written by exactly one worker, in the serial order, so every bit
// matches the serial path. All randomness is consumed in the producer.
func (e *Engine) runSharedChain(g game.Game, players []int, k, tau int, r *rng.Source, workers int, trk *adaptiveTracker, step func(w *prefixWalker, perm []int, utils []float64, j int)) int {
	c := len(players)
	walkShared := func(w *prefixWalker, perm []int, utils []float64) {
		r.Perm(perm)
		w.reset()
		for pos, idx := range perm {
			utils[pos] = w.add(players[idx])
		}
	}
	wBase := newPrefixWalker(g)
	if workers == 1 {
		wWith := newPrefixWalker(g)
		perm := reuseInts(e.scratch.perm, c)
		utils := reuseFloats(e.scratch.utils, c)
		e.scratch.perm, e.scratch.utils = perm, utils
		for t := 1; t <= tau; t++ {
			walkShared(wBase, perm, utils)
			for j := 0; j < k; j++ {
				step(wWith, perm, utils, j)
			}
			if trk != nil && t%e.chunk == 0 && t >= adaptiveMinTau && t < tau && trk.met() {
				return t
			}
		}
		return tau
	}

	const depth = 2
	if e.scratch.deltaSlots == nil {
		e.scratch.deltaSlots = make([]*deltaBatchChunk, depth)
		for s := range e.scratch.deltaSlots {
			e.scratch.deltaSlots[s] = &deltaBatchChunk{
				perms: make([][]int, e.chunk),
				utils: make([][]float64, e.chunk),
			}
		}
	}
	slots := e.scratch.deltaSlots
	for _, ch := range slots {
		for p := 0; p < e.chunk; p++ {
			ch.perms[p] = reuseInts(ch.perms[p], c)
			ch.utils[p] = reuseFloats(ch.utils[p], c)
		}
	}

	chans := make([]chan *deltaBatchChunk, workers)
	var wwg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		chans[wk] = make(chan *deltaBatchChunk, depth)
		jlo, jhi := wk*k/workers, (wk+1)*k/workers
		wwg.Add(1)
		go func(jlo, jhi int, in chan *deltaBatchChunk) {
			defer wwg.Done()
			w := newPrefixWalker(g)
			for ch := range in {
				for p := 0; p < ch.count; p++ {
					for j := jlo; j < jhi; j++ {
						step(w, ch.perms[p], ch.utils[p], j)
					}
				}
				ch.wg.Done()
			}
		}(jlo, jhi, chans[wk])
	}

	issued := 0
	for si := 0; issued < tau; si++ {
		ch := slots[si%depth]
		ch.wg.Wait() // previous dispatch of this buffer fully drained
		ch.count = min(e.chunk, tau-issued)
		for p := 0; p < ch.count; p++ {
			walkShared(wBase, ch.perms[p], ch.utils[p])
		}
		ch.wg.Add(workers)
		for _, in := range chans {
			in <- ch
		}
		issued += ch.count
	}
	for _, in := range chans {
		close(in)
	}
	wwg.Wait()
	return tau
}

// pivotBatchStep records one pending point's insertion into one stored
// permutation: the evolved permutation (pivots 0..j included), the slot
// the point landed in (where the suffix walk starts), and the slot drawn
// for the NEXT pivot (the dlsv cutoff).
type pivotBatchStep struct {
	perm  []int
	tslot int
	next  int
}

// pivotBatchChunk is one batch of evolved stored permutations in flight.
type pivotBatchChunk struct {
	count int
	steps [][]pivotBatchStep // [perm][pending point]
	wg    sync.WaitGroup
}

// BatchAddSame runs the batched Pivot-s walk (Algorithm 3 generalised to
// k pending points): every stored permutation is threaded through all k
// pivot insertions by the producer, and the k suffix walks proceed from
// the recorded slots, striped across workers by pending point. st is
// mutated exactly as k successive AddSame calls would mutate it (evolved
// permutations, final slots, folded SV/LSV); rs supplies one RNG source
// per pending point in arrival order, each consumed once per stored
// permutation — the same per-source order as the sequential loop.
// Bit-identical to BatchAddSameSeq (and therefore to the per-point
// AddSame loop) for the same sources at every worker count; requires a
// state built with keepPerms.
func (e *Engine) BatchAddSame(st *PivotState, gPlus game.Game, k int, rs []*rng.Source) ([]float64, error) {
	if st.perms == nil {
		return nil, ErrNoPermutations
	}
	n := st.N()
	if err := checkBatchAdd(gPlus, n, k); err != nil {
		return nil, err
	}
	if len(rs) != k {
		return nil, fmt.Errorf("core: BatchAddSame got %d RNG sources for %d points", len(rs), k)
	}
	m := n + k
	workers := e.effectiveWorkers(k)
	e.stats = EngineStats{Budget: st.Tau, Workers: workers}
	// The pivot walk cannot carry extra heads: its suffix walks and LSV
	// recurrence are Shapley-specific (the planner never routes a
	// multi-head update here).
	e.headVals = nil

	rsv := zeroMat(&e.scratch.rsv, k, m)
	dlsv := zeroMat(&e.scratch.dlsv, k, m)
	probe := newPrefixWalker(gPlus)
	var uEmpty float64
	if probe.incremental() {
		uEmpty = gPlus.Value(bitset.New(m))
	}

	start := time.Now()
	var updates int64
	if workers == 1 {
		steps := reuseSteps(&e.scratch.steps, k)
		for t := range st.perms {
			e.evolvePivotPerm(st, t, n, k, rs, steps)
			for j := 0; j < k; j++ {
				updates += pivotBatchWalk(probe, steps[j], uEmpty, rsv[j], dlsv[j])
			}
		}
	} else {
		updates = e.runPivotBatchStriped(st, gPlus, n, k, rs, uEmpty, rsv, dlsv, workers)
	}
	e.stats.Seconds = time.Since(start).Seconds()
	e.stats.Issued = st.Tau
	e.stats.Updates = updates

	// Fold the k points' contributions in arrival order — the exact
	// SV/LSV recurrence k successive AddSame folds apply, with each step's
	// lsv feeding the next step's reuse term.
	sv := make([]float64, m)
	lsv := make([]float64, m)
	copy(lsv, st.LSV)
	for j := 0; j < k; j++ {
		mj := n + j + 1
		for i := 0; i < mj; i++ {
			l := lsv[i]
			sv[i] = l + rsv[j][i]/float64(st.Tau)
			lsv[i] = 2.0/3.0*l + dlsv[j][i]/float64(st.Tau)
		}
	}
	st.SV = sv
	st.LSV = lsv
	return append([]float64(nil), sv...), nil
}

// reuseSteps returns a length-k step buffer, reusing *dst's entries (and
// through them the per-step perm buffers evolvePivotPerm recycles).
func reuseSteps(dst *[]pivotBatchStep, k int) []pivotBatchStep {
	s := *dst
	if cap(s) < k {
		grown := make([]pivotBatchStep, k)
		copy(grown, s[:cap(s)])
		s = grown
	} else {
		s = s[:k]
	}
	*dst = s
	return s
}

// evolvePivotPerm threads stored permutation t through all k pivot
// insertions, recording one step per pending point, and installs the
// final permutation and slot back into the state — exactly what k
// successive AddSame iterations over this permutation do. It consumes one
// Intn draw from each source, in arrival order.
//
// Each step's perm buffer is recycled from the previous call (steps
// buffers are single-owner: the serial loop and the chunk slots both
// drain a step's walk before re-evolving into it), so the k insertions
// cost zero steady-state allocations. The final permutation is COPIED
// into the state — st.perms[t] is freshly cloned by the session for this
// update and must outlive the recycled buffers.
func (e *Engine) evolvePivotPerm(st *PivotState, t, n, k int, rs []*rng.Source, steps []pivotBatchStep) {
	cur := st.perms[t]
	tslot := st.slots[t]
	for j := 0; j < k; j++ {
		pj := steps[j].perm
		if cap(pj) < len(cur)+1 {
			pj = make([]int, 0, len(cur)+1)
		} else {
			pj = pj[:0]
		}
		pj = append(pj, cur[:tslot]...)
		pj = append(pj, n+j)
		pj = append(pj, cur[tslot:]...)
		next := rs[j].Intn(len(pj) + 1)
		steps[j] = pivotBatchStep{perm: pj, tslot: tslot, next: next}
		cur, tslot = pj, next
	}
	st.perms[t] = append(st.perms[t][:0], cur...)
	st.slots[t] = tslot
}

// pivotBatchWalk evaluates one pending point's suffix walk over one
// evolved permutation — AddSame's inner loop verbatim — and returns the
// number of accumulator updates for throughput accounting.
func pivotBatchWalk(w *prefixWalker, s pivotBatchStep, uEmpty float64, rsv, dlsv []float64) int64 {
	w.reset()
	prev := w.advance(s.perm, s.tslot, uEmpty)
	for pos := s.tslot; pos < len(s.perm); pos++ {
		q := s.perm[pos]
		cur := w.add(q)
		mc := cur - prev
		rsv[q] += mc
		if pos < s.next {
			dlsv[q] += mc
		}
		prev = cur
	}
	return int64(len(s.perm) - s.tslot)
}

// runPivotBatchStriped is BatchAddSame's parallel path: the producer
// evolves stored permutations (consuming all randomness) into
// double-buffered chunks; worker w walks only its pending-point stripe.
// Per-point accumulators are single-writer and fed in chunk issue order,
// so the result is bit-identical to the serial path.
func (e *Engine) runPivotBatchStriped(st *PivotState, gPlus game.Game, n, k int, rs []*rng.Source, uEmpty float64, rsv, dlsv [][]float64, workers int) int64 {
	const depth = 2
	if e.scratch.pivotSlots == nil {
		e.scratch.pivotSlots = make([]*pivotBatchChunk, depth)
		for s := range e.scratch.pivotSlots {
			e.scratch.pivotSlots[s] = &pivotBatchChunk{steps: make([][]pivotBatchStep, e.chunk)}
		}
	}
	slots := e.scratch.pivotSlots
	for _, c := range slots {
		for p := 0; p < e.chunk; p++ {
			c.steps[p] = reuseSteps(&c.steps[p], k)
		}
	}

	counts := make([]int64, workers)
	chans := make([]chan *pivotBatchChunk, workers)
	var wwg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		chans[wk] = make(chan *pivotBatchChunk, depth)
		jlo, jhi := wk*k/workers, (wk+1)*k/workers
		wwg.Add(1)
		go func(wk, jlo, jhi int, ch chan *pivotBatchChunk) {
			defer wwg.Done()
			w := newPrefixWalker(gPlus)
			for c := range ch {
				for p := 0; p < c.count; p++ {
					for j := jlo; j < jhi; j++ {
						counts[wk] += pivotBatchWalk(w, c.steps[p][j], uEmpty, rsv[j], dlsv[j])
					}
				}
				c.wg.Done()
			}
		}(wk, jlo, jhi, chans[wk])
	}

	tau := len(st.perms)
	issued := 0
	for si := 0; issued < tau; si++ {
		c := slots[si%depth]
		c.wg.Wait()
		count := e.chunk
		if rem := tau - issued; rem < count {
			count = rem
		}
		c.count = count
		for p := 0; p < count; p++ {
			e.evolvePivotPerm(st, issued+p, n, k, rs, c.steps[p])
		}
		c.wg.Add(workers)
		for _, ch := range chans {
			ch <- c
		}
		issued += count
	}
	for _, ch := range chans {
		close(ch)
	}
	wwg.Wait()
	var total int64
	for _, c := range counts {
		total += c
	}
	return total
}
