package core

import (
	"fmt"
	"sync"
	"time"

	"dynshap/internal/bitset"
	"dynshap/internal/game"
	"dynshap/internal/rng"
)

// This file implements the batched DELETION walk — the removal-side
// counterpart of engine_batch.go. The same two families, mirrored:
//
//   - BatchDeltaDelete shares the common-survivor chain. A per-point
//     delta deletion pays two prefix walks per permutation; across k
//     departing points the without-chain (a walk of the survivors only)
//     is the SAME for every point once permutations are drawn over the
//     COMMON survivors, so the producer walks it once and the k
//     with-chains — each seeded with its departing point — read its
//     utilities from a buffer: (k+1) chains per permutation instead of
//     2k.
//
//   - BatchDeleteSame evolves the stored permutations through all k
//     removals first (pure integer bookkeeping, zero randomness, zero
//     evaluations) and walks each FINAL permutation once in the final
//     (n−k)-player game. k successive DeleteSame calls rebuild SV/LSV
//     from scratch at every step, so the intermediate walks are dead
//     work — the batch skips them for a genuine k× evaluation saving
//     while landing on bit-identical state: the final walk visits the
//     same permutations in the same game either way.
//
// Parallelism follows engine_batch.go's contract. The delta form stripes
// over the DEPARTING POINTS (each dsv_j single-owner); the pivot form has
// one shared pass, so it stripes over the PLAYER ROWS of rsv/dlsv like
// the preprocessing fills, with the producer publishing each walk's
// prefix utilities. Either way every accumulator is written by exactly
// one worker, fed in chunk issue order — bit-identical to the sequential
// references at any worker count. All randomness (the delta form's
// permutation draws) is consumed in the producer; the pivot form consumes
// none at all.
//
// A single departing point (k = 1) is the paper's per-point Algorithm 8,
// so BatchDeltaDelete at k = 1 is THE delta deletion: it carries the
// engine's adaptive stop (WithTargetError) and the extra semivalue heads
// (WithSemivalues). Multi-point BatchDeltaDelete, and BatchDeleteSame at
// any k, are Shapley-only (the planner never routes a head-carrying
// session there) and spend their full budget — shared permutations couple
// the points' budgets, and journals recorded batched deletions without
// early stop. Stats then report Issued == Budget.

// BatchDeltaDelete runs the batched delta deletion (Algorithm 8
// generalised to k departing points): g is the n-player PRE-batch game,
// oldSV the n pre-batch values, points the departing indices in arrival
// order. It returns n entries — every survivor's value adjusted by the k
// points' summed (negated) deltas folded in arrival order, and 0 for each
// removed player (the paper's convention). Bit-identical to
// BatchDeltaDeleteSeq for the same seed at every worker count.
//
// All utility evaluations are coalitions of the ORIGINAL game g (some
// including the departing points), so no new data is touched — only extra
// model trainings on subsets that were never sampled before.
func (e *Engine) BatchDeltaDelete(g game.Game, oldSV []float64, points []int, tau int, r *rng.Source) ([]float64, error) {
	n := g.N()
	if len(oldSV) != n {
		return nil, fmt.Errorf("core: BatchDeltaDelete oldSV has %d entries, want %d", len(oldSV), n)
	}
	if err := checkBatchDelete(n, points); err != nil {
		return nil, err
	}
	if tau <= 0 {
		return nil, fmt.Errorf("core: BatchDeltaDelete requires tau > 0, got %d", tau)
	}
	k := len(points)
	e.headVals = nil
	if k == n {
		// Nothing survives to estimate: zeros everywhere, heads included
		// (callers compact head slices alongside the values), and no
		// randomness consumed.
		e.stats = EngineStats{Budget: tau, Workers: 1}
		if len(e.heads) > 0 {
			e.headVals = make([][]float64, len(e.heads))
			for h := range e.headVals {
				e.headVals[h] = make([]float64, n)
			}
		}
		return make([]float64, n), nil
	}
	survivors := batchSurvivors(n, points)
	c := n - k
	workers := e.effectiveWorkers(k)
	e.stats = EngineStats{Budget: tau, Workers: workers}

	uEmpty := g.Value(bitset.New(n))
	uP := make([]float64, k)
	for j, p := range points {
		uP[j] = g.Value(bitset.FromIndices(n, p))
	}
	dsv := zeroMat(&e.scratch.dsv, k, n)
	// The single-point pass carries the adaptive stop and the extra heads,
	// the latter with their own n → n−1 transition coefficients
	// (semivalue.DeleteCoeffs).
	var (
		trk *adaptiveTracker
		hf  *delHeadFold
	)
	if k == 1 {
		if e.adaptive() {
			trk = newAdaptiveTracker(n, e.eps, e.delta)
		}
		hf = newDelHeadFold(e.heads, n)
	}

	start := time.Now()
	issued := e.runSharedChain(g, survivors, k, tau, r, workers, trk,
		func(w *prefixWalker, perm []int, utils []float64, j int) {
			batchDeltaDeleteStep(w, perm, survivors, utils, uEmpty, uP[j], points[j], c+1, dsv[j], hf, trk)
		})
	e.stats.Seconds = time.Since(start).Seconds()
	e.stats.Issued = issued
	e.stats.EarlyStop = issued < tau
	if trk != nil {
		e.stats.Bound = trk.lastBound
	}
	e.stats.Updates = int64(issued) * int64(k) * int64(c)

	out := make([]float64, n)
	for _, q := range survivors {
		out[q] = oldSV[q]
	}
	for j := 0; j < k; j++ {
		for _, q := range survivors {
			out[q] += dsv[j][q] / float64(issued)
		}
	}
	if hf != nil {
		e.headVals = hf.finishDelete(e.headBase, points[0], issued)
	}
	return out, nil
}

// batchDeltaDeleteStep runs one departing point's with-chain over one
// walked permutation, reading the survivor chain's utilities from the
// shared buffer. denom is c+1 = n−k+1, the survivor-game stratification
// weight. hf and trk (non-nil only in a single-point pass) fold the extra
// heads and observe each survivor's change for the adaptive stop.
func batchDeltaDeleteStep(w *prefixWalker, perm, survivors []int, utils []float64, uEmpty, uP float64, p, denom int, dsv []float64, hf *delHeadFold, trk *adaptiveTracker) {
	w.reset()
	prevNo := uEmpty
	prevWith := w.seed(p, uP)
	for pos, idx := range perm {
		q := survivors[idx]
		curNo := utils[pos]
		curWith := w.add(q)
		// Deletion mirrors addition with opposite sign: the survivor loses
		// exactly the share the departing point contributed.
		dmc := (curWith - curNo) - (prevWith - prevNo)
		x := dmc * float64(pos+1) / float64(denom)
		dsv[q] -= x
		if trk != nil {
			trk.observe(q, -x)
		}
		if hf != nil {
			hf.foldPos(pos, q, curNo-prevNo, curWith-prevWith)
		}
		prevNo, prevWith = curNo, curWith
	}
	if trk != nil {
		trk.endSample()
	}
}

// deleteSameChunk is one batch of evolved permutations — with their
// adjusted pivot slots and prefix utilities — in flight between the
// producer and the row-striped workers.
type deleteSameChunk struct {
	count int
	perms [][]int // aliases the state's evolved permutation buffers
	slots []int
	utils [][]float64
	wg    sync.WaitGroup
}

// BatchDeleteSame runs the batched pivot deletion: the producer threads
// every stored permutation through all k removals (deleteEvolveStep per
// point, arrival order), then ONE full walk per evolved permutation in
// the final (n−k)-player game gMinus rebuilds SV and LSV — exactly the
// state k successive DeleteSame calls land on, minus their k−1
// intermediate walks. points are original n-player indices in arrival
// order; gMinus must renumber survivors by order-preserving compaction.
// st is mutated exactly as the sequential loop would mutate it (evolved
// permutations, adjusted slots, rebuilt SV/LSV); no randomness is
// consumed. Bit-identical to BatchDeleteSameSeq at every worker count.
func (e *Engine) BatchDeleteSame(st *PivotState, gMinus game.Game, points []int) ([]float64, error) {
	if st.perms == nil {
		return nil, ErrNoPermutations
	}
	n := st.N()
	if err := checkBatchDelete(n, points); err != nil {
		return nil, err
	}
	k := len(points)
	if k >= n {
		return nil, fmt.Errorf("core: BatchDeleteSame would remove every player")
	}
	m := n - k
	if gMinus.N() != m {
		return nil, fmt.Errorf("core: BatchDeleteSame game has %d players, want %d", gMinus.N(), m)
	}
	workers := e.effectiveWorkers(m)
	e.stats = EngineStats{Budget: st.Tau, Workers: workers}
	e.headVals = nil

	// Per-step removal indices translated through the earlier removals:
	// rel[j] is points[j] in the numbering current when step j runs.
	rel := make([]int, k)
	for j, p := range points {
		rel[j] = p
		for _, d := range points[:j] {
			if d < p {
				rel[j]--
			}
		}
	}

	rsv := zeroMat(&e.scratch.rsv, 1, m)[0]
	dlsv := zeroMat(&e.scratch.dlsv, 1, m)[0]
	uEmpty := gMinus.Value(bitset.New(m))

	start := time.Now()
	if workers == 1 {
		w := newPrefixWalker(gMinus)
		for t := range st.perms {
			perm, slot := st.perms[t], st.slots[t]
			for _, p := range rel {
				perm, slot = deleteEvolveStep(perm, slot, p)
			}
			st.perms[t], st.slots[t] = perm, slot
			w.reset()
			prev := uEmpty
			for pos, q := range perm {
				cur := w.add(q)
				mc := cur - prev
				rsv[q] += mc
				if pos < slot {
					dlsv[q] += mc
				}
				prev = cur
			}
		}
	} else {
		e.runDeleteSameStriped(st, gMinus, rel, m, uEmpty, rsv, dlsv, workers)
	}
	e.stats.Seconds = time.Since(start).Seconds()
	e.stats.Issued = st.Tau
	e.stats.Updates = int64(st.Tau) * int64(m)

	sv := make([]float64, m)
	lsv := make([]float64, m)
	for i := 0; i < m; i++ {
		sv[i] = rsv[i] / float64(st.Tau)
		lsv[i] = dlsv[i] / float64(st.Tau)
	}
	st.SV = sv
	st.LSV = lsv
	return append([]float64(nil), sv...), nil
}

// runDeleteSameStriped is BatchDeleteSame's parallel path. Unlike the
// per-point batch stripes there is only ONE walk per permutation here, so
// parallelism stripes over the PLAYER ROWS of rsv/dlsv (the fill engine's
// pattern): the producer evolves each permutation, walks its prefix
// utilities once, and ships (perm, slot, utils) chunks; worker w re-derives
// the marginals from the utility diffs and folds only rows lo ≤ q < hi.
// Single-owner rows fed in chunk issue order — bit-identical to serial.
func (e *Engine) runDeleteSameStriped(st *PivotState, gMinus game.Game, rel []int, m int, uEmpty float64, rsv, dlsv []float64, workers int) {
	const depth = 2
	if e.scratch.delSlots == nil {
		e.scratch.delSlots = make([]*deleteSameChunk, depth)
		for s := range e.scratch.delSlots {
			e.scratch.delSlots[s] = &deleteSameChunk{
				perms: make([][]int, e.chunk),
				slots: make([]int, e.chunk),
				utils: make([][]float64, e.chunk),
			}
		}
	}
	slots := e.scratch.delSlots
	for _, c := range slots {
		for p := 0; p < e.chunk; p++ {
			c.utils[p] = reuseFloats(c.utils[p], m)
		}
	}

	chans := make([]chan *deleteSameChunk, workers)
	var wwg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		chans[wk] = make(chan *deleteSameChunk, depth)
		lo, hi := wk*m/workers, (wk+1)*m/workers
		wwg.Add(1)
		go func(lo, hi int, ch chan *deleteSameChunk) {
			defer wwg.Done()
			for c := range ch {
				for p := 0; p < c.count; p++ {
					perm, slot, utils := c.perms[p], c.slots[p], c.utils[p]
					prev := uEmpty
					for pos, q := range perm {
						cur := utils[pos]
						if q >= lo && q < hi {
							mc := cur - prev
							rsv[q] += mc
							if pos < slot {
								dlsv[q] += mc
							}
						}
						prev = cur
					}
				}
				c.wg.Done()
			}
		}(lo, hi, chans[wk])
	}

	w := newPrefixWalker(gMinus)
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
			t := issued + p
			perm, slot := st.perms[t], st.slots[t]
			for _, d := range rel {
				perm, slot = deleteEvolveStep(perm, slot, d)
			}
			st.perms[t], st.slots[t] = perm, slot
			w.reset()
			u := c.utils[p]
			for pos, q := range perm {
				u[pos] = w.add(q)
			}
			c.perms[p], c.slots[p] = perm, slot
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
}
