package core

import (
	"fmt"

	"dynshap/internal/bitset"
	"dynshap/internal/game"
	"dynshap/internal/rng"
)

// This file defines the batched update walk's SEQUENTIAL reference
// implementations: the per-point loops the engine's batched passes
// (engine_batch.go) must reproduce bit for bit. The batched forms change
// only the loop order and the sharing of prefix state — never the set of
// coalitions evaluated for a given (perm, point) pair, the order in which
// any single accumulator receives floating-point additions, or the order
// in which any single RNG source is consumed — which is the whole
// determinism argument, so the references stay in the repository as the
// equality tests' ground truth rather than as scaffolding.

// checkBatchAdd validates the common preconditions of the batched addition
// walks: gPlus is the (n+k)-player updated game whose LAST k players are
// the pending points, in arrival order.
func checkBatchAdd(gPlus game.Game, n, k int) error {
	if k < 1 {
		return fmt.Errorf("core: batch add requires k ≥ 1 pending points, got %d", k)
	}
	if gPlus.N() != n+k {
		return fmt.Errorf("core: batch add game has %d players, want %d", gPlus.N(), n+k)
	}
	return nil
}

// BatchDeltaAddSeq is the sequential reference for the batched delta
// addition: k independent Algorithm-5 estimates against the FIXED n-player
// base, sharing one permutation stream. The permutations are pre-drawn
// exactly as the batched walk draws them (PermN consumes the same values
// Perm does), then each pending point j = 0..k−1 runs the full
// Algorithm-5 two-walker pass (no-pivot and with-pivot chains walked side
// by side) over all of them and folds its contribution into the
// output in arrival order.
//
// Note what this estimator is NOT: the session's historic per-point loop
// re-bases after every insertion (point j is valued against a game already
// containing points 0..j−1, and later deltas adjust the earlier arrivals'
// fresh values). The batch form values every pending point against the
// shared pre-batch base — that is what lets one permutation pass serve all
// k points. At k = 1 the two notions coincide: this function is then the
// two-walker form of the single-point delta addition, the reference the
// batch engine's k = 1 walk must match bit for bit.
func BatchDeltaAddSeq(gPlus game.Game, oldSV []float64, k, tau int, r *rng.Source) ([]float64, error) {
	n := len(oldSV)
	if err := checkBatchAdd(gPlus, n, k); err != nil {
		return nil, err
	}
	if tau <= 0 {
		return nil, fmt.Errorf("core: BatchDeltaAddSeq requires tau > 0, got %d", tau)
	}
	m := n + k
	perms := make([][]int, tau)
	for t := range perms {
		perms[t] = r.PermN(n)
	}
	uEmpty := gPlus.Value(bitset.New(m))

	out := make([]float64, m)
	copy(out, oldSV)
	wNo := newPrefixWalker(gPlus)
	wWith := newPrefixWalker(gPlus)
	for j := 0; j < k; j++ {
		pivot := n + j
		uPivot := gPlus.Value(bitset.FromIndices(m, pivot))
		dsv := make([]float64, n)
		newSV := 0.0
		for _, perm := range perms {
			wNo.reset()
			wWith.reset()
			prevNo := uEmpty
			prevWith := wWith.seed(pivot, uPivot)
			newSV += prevWith - prevNo // S=∅ stratum of the new point's value
			for pos, p := range perm {
				curNo := wNo.add(p)
				curWith := wWith.add(p)
				dmc := (curWith - curNo) - (prevWith - prevNo)
				dsv[p] += dmc * float64(pos+1) / float64(n+1)
				newSV += curWith - curNo
				prevNo, prevWith = curNo, curWith
			}
		}
		for i := 0; i < n; i++ {
			out[i] += dsv[i] / float64(tau)
		}
		out[pivot] = newSV / float64(tau) / float64(n+1)
	}
	return out, nil
}

// checkBatchDelete validates the departing points of a batched deletion
// against an n-player pre-batch game: at least one point, all indices in
// range, no duplicates. Points are given in arrival order (the order the
// caller wants their per-point deltas folded), not necessarily sorted.
func checkBatchDelete(n int, points []int) error {
	if len(points) < 1 {
		return fmt.Errorf("core: batch delete requires k ≥ 1 departing points, got 0")
	}
	if len(points) > n {
		return fmt.Errorf("core: batch delete of %d points from %d players", len(points), n)
	}
	seen := bitset.New(n)
	for _, p := range points {
		if p < 0 || p >= n {
			return fmt.Errorf("core: batch delete point %d out of range [0,%d)", p, n)
		}
		if seen.Contains(p) {
			return fmt.Errorf("core: batch delete point %d listed twice", p)
		}
		seen.Add(p)
	}
	return nil
}

// BatchDeltaDeleteSeq is the sequential reference for the batched delta
// deletion: k independent Algorithm-8 estimates against the FIXED n-player
// pre-batch game, sharing one permutation stream drawn over the COMMON
// survivors (the n−k players departing in no removal). The permutations
// are pre-drawn exactly as the batched walk draws them, then each
// departing point j runs the full Algorithm-8 two-walker pass over all of
// them and folds its (negated) contribution into the output in arrival
// order. Removed players report 0 (the paper's convention).
//
// As with BatchDeltaAddSeq, this is a different estimator from the
// session's historic per-point loop — which re-bases after every removal,
// shrinking the survivor pool one step at a time — but both are unbiased
// for the same target, and at k = 1 the two notions coincide: this
// function is then the two-walker single-point delta deletion, the
// reference the batch engine's k = 1 walk must match bit for bit, RNG
// consumption included.
func BatchDeltaDeleteSeq(g game.Game, oldSV []float64, points []int, tau int, r *rng.Source) ([]float64, error) {
	n := g.N()
	if len(oldSV) != n {
		return nil, fmt.Errorf("core: BatchDeltaDeleteSeq oldSV has %d entries, want %d", len(oldSV), n)
	}
	if err := checkBatchDelete(n, points); err != nil {
		return nil, err
	}
	if tau <= 0 {
		return nil, fmt.Errorf("core: BatchDeltaDeleteSeq requires tau > 0, got %d", tau)
	}
	k := len(points)
	out := make([]float64, n)
	if k == n {
		// Every player leaves: nothing survives to estimate, consume no
		// randomness (the single-player deletion convention, generalised).
		return out, nil
	}
	survivors := batchSurvivors(n, points)
	c := n - k
	perms := make([][]int, tau)
	for t := range perms {
		perms[t] = r.PermN(c)
	}
	uEmpty := g.Value(bitset.New(n))
	for _, q := range survivors {
		out[q] = oldSV[q]
	}
	wNo := newPrefixWalker(g)
	wWith := newPrefixWalker(g)
	for _, p := range points {
		uP := g.Value(bitset.FromIndices(n, p))
		dsv := make([]float64, n)
		for _, perm := range perms {
			wNo.reset()
			wWith.reset()
			prevNo := uEmpty
			prevWith := wWith.seed(p, uP)
			for pos, idx := range perm {
				q := survivors[idx]
				curNo := wNo.add(q)
				curWith := wWith.add(q)
				dmc := (curWith - curNo) - (prevWith - prevNo)
				// Stratified weight (|S|+1)/(c+1) over the common-survivor
				// game; at k = 1, c+1 = n — Algorithm 8's weight exactly.
				dsv[q] -= dmc * float64(pos+1) / float64(c+1)
				prevNo, prevWith = curNo, curWith
			}
		}
		for _, q := range survivors {
			out[q] += dsv[q] / float64(tau)
		}
	}
	return out, nil
}

// batchSurvivors returns the ascending indices of the players departing in
// no removal of the batch.
func batchSurvivors(n int, points []int) []int {
	gone := bitset.New(n)
	for _, p := range points {
		gone.Add(p)
	}
	survivors := make([]int, 0, n-len(points))
	for i := 0; i < n; i++ {
		if !gone.Contains(i) {
			survivors = append(survivors, i)
		}
	}
	return survivors
}

// BatchDeleteSameSeq is the sequential reference for the batched pivot
// deletion: k successive DeleteSame calls, each against the restriction of
// the n-player pre-batch game g to the players still present (dropping the
// removed points renumbers the rest by order-preserving compaction — the
// exact renumbering DeleteSame applies to the stored permutations). points
// are original n-player indices in arrival order; the per-step index is
// translated through the earlier removals. DeleteSame consumes no
// randomness, so the reference takes no RNG sources.
func BatchDeleteSameSeq(st *PivotState, g game.Game, points []int) ([]float64, error) {
	if st.perms == nil {
		return nil, ErrNoPermutations
	}
	n := st.N()
	if g.N() != n {
		return nil, fmt.Errorf("core: BatchDeleteSameSeq game has %d players, want %d", g.N(), n)
	}
	if err := checkBatchDelete(n, points); err != nil {
		return nil, err
	}
	if len(points) >= n {
		return nil, fmt.Errorf("core: BatchDeleteSameSeq would remove every player")
	}
	var sv []float64
	for j := range points {
		gj := game.NewRestrict(g, points[:j+1]...)
		pj := points[j]
		for _, d := range points[:j] {
			if d < points[j] {
				pj--
			}
		}
		var err error
		sv, err = st.DeleteSame(gj, pj)
		if err != nil {
			return nil, err
		}
	}
	return sv, nil
}

// BatchAddSameSeq is the sequential reference for the batched Pivot-s
// walk: k successive AddSame calls, each against the restriction of gPlus
// to the players inserted so far (dropping the tail pivots keeps indices
// 0..n+j unchanged, so step j sees exactly the (n+j+1)-player game the
// session's per-point loop would build). rs supplies one RNG source per
// pending point, in arrival order — the batched walk consumes the same
// sources in the same per-source order, which is what keeps the two forms
// bit-identical.
func BatchAddSameSeq(st *PivotState, gPlus game.Game, k int, rs []*rng.Source) ([]float64, error) {
	if st.perms == nil {
		return nil, ErrNoPermutations
	}
	n := st.N()
	if err := checkBatchAdd(gPlus, n, k); err != nil {
		return nil, err
	}
	if len(rs) != k {
		return nil, fmt.Errorf("core: BatchAddSameSeq got %d RNG sources for %d points", len(rs), k)
	}
	var sv []float64
	for j := 0; j < k; j++ {
		gj := game.Game(gPlus)
		if j < k-1 {
			tail := make([]int, 0, k-1-j)
			for t := n + j + 1; t < n+k; t++ {
				tail = append(tail, t)
			}
			gj = game.NewRestrict(gPlus, tail...)
		}
		var err error
		sv, err = st.AddSame(gj, rs[j])
		if err != nil {
			return nil, err
		}
	}
	return sv, nil
}
