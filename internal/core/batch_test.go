package core

import (
	"testing"

	"dynshap/internal/dataset"
	"dynshap/internal/game"
	"dynshap/internal/rng"
	"dynshap/internal/utility"
)

// The batched update walk's determinism contract: one shared permutation
// pass over k pending points produces EXACTLY the bits of the per-point
// sequential reference — for the delta form, k independent τ-walks against
// the fixed base sharing the permutation stream (BatchDeltaAddSeq); for
// the pivot form, k successive AddSame calls (BatchAddSameSeq) — at every
// worker count, on both the incremental-prefix and scratch-fallback paths.

// batchPoints fabricates k deterministic pending points for a utility.
func batchPoints(u *utility.ModelUtility, k int) []dataset.Point {
	dim := u.Train().Dim()
	pts := make([]dataset.Point, k)
	for j := range pts {
		x := make([]float64, dim)
		for i := range x {
			x[i] = 0.2*float64(i+1) - 0.15*float64(j+1)
		}
		pts[j] = dataset.Point{X: x, Y: (j + 1) % 3}
	}
	return pts
}

// knnBatchPair returns the (n+k)-player updated KNN game twice: Prefixer
// visible, and hidden behind game.Func (scratch fallback).
func knnBatchPair(t *testing.T, n, k int) (*utility.ModelUtility, game.Game) {
	t.Helper()
	u, _ := knnPair(t, n)
	uPlus := u.Append(batchPoints(u, k)...)
	return uPlus, game.Func{Players: n + k, U: uPlus.Value}
}

func baseValues(n int) []float64 {
	sv := make([]float64, n)
	for i := range sv {
		sv[i] = 0.01*float64(i) - 0.003*float64(n-i)
	}
	return sv
}

func TestBatchDeltaAddMatchesSequentialReference(t *testing.T) {
	const n, k, tau = 14, 5, 40
	uPlus, hidden := knnBatchPair(t, n, k)
	oldSV := baseValues(n)

	want, err := BatchDeltaAddSeq(uPlus, oldSV, k, tau, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	wantFB, err := BatchDeltaAddSeq(hidden, oldSV, k, tau, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	sameSlice(t, "seq incremental vs fallback", want, wantFB)

	for _, workers := range []int{1, 2, 3, 4, 16} {
		e := NewEngine(WithWorkers(workers))
		got, err := e.BatchDeltaAdd(uPlus, oldSV, k, tau, rng.New(11))
		if err != nil {
			t.Fatal(err)
		}
		sameSlice(t, "engine incremental", got, want)
		if st := e.Stats(); st.Issued != tau || st.Budget != tau {
			t.Fatalf("workers=%d: stats issued=%d budget=%d, want %d", workers, st.Issued, st.Budget, tau)
		}
		gotFB, err := e.BatchDeltaAdd(hidden, oldSV, k, tau, rng.New(11))
		if err != nil {
			t.Fatal(err)
		}
		sameSlice(t, "engine fallback", gotFB, want)
	}
}

func TestBatchDeltaAddK1MatchesDeltaAdd(t *testing.T) {
	const n, tau = 12, 30
	uPlus, _ := knnBatchPair(t, n, 1)
	oldSV := baseValues(n)

	want, err := BatchDeltaAddSeq(uPlus, oldSV, 1, tau, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewEngine().BatchDeltaAdd(uPlus, oldSV, 1, tau, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	sameSlice(t, "engine vs seq", got, want)
	gotE, err := NewEngine().DeltaAdd(uPlus, oldSV, tau, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	sameSlice(t, "engine DeltaAdd vs batch", gotE, got)
}

// pivotFixture builds a keepPerms pivot state over the n-player base and
// the (n+k)-player updated game, plus k per-point RNG sources.
func pivotFixture(t *testing.T, n, k int) (*PivotState, game.Game, game.Game) {
	t.Helper()
	u, _ := knnPair(t, n)
	st := PivotInit(u, 25, true, rng.New(3))
	uPlus := u.Append(batchPoints(u, k)...)
	return st, uPlus, game.Func{Players: n + k, U: uPlus.Value}
}

func splitSources(seed uint64, k int) []*rng.Source {
	r := rng.New(seed)
	rs := make([]*rng.Source, k)
	for i := range rs {
		rs[i] = r.Split()
	}
	return rs
}

func TestBatchAddSameMatchesSequentialReference(t *testing.T) {
	const n, k = 14, 5
	st, uPlus, hidden := pivotFixture(t, n, k)

	ref := st.Clone()
	want, err := BatchAddSameSeq(ref, uPlus, k, splitSources(9, k))
	if err != nil {
		t.Fatal(err)
	}
	refFB := st.Clone()
	wantFB, err := BatchAddSameSeq(refFB, uPlus, k, splitSources(9, k))
	if err != nil {
		t.Fatal(err)
	}
	_ = hidden
	sameSlice(t, "seq twice", want, wantFB)

	for _, workers := range []int{1, 2, 3, 4, 16} {
		for _, g := range []game.Game{uPlus, hidden} {
			cl := st.Clone()
			e := NewEngine(WithWorkers(workers))
			got, err := e.BatchAddSame(cl, g, k, splitSources(9, k))
			if err != nil {
				t.Fatal(err)
			}
			sameSlice(t, "engine batch SV", got, want)
			sameSlice(t, "engine batch LSV", cl.LSV, ref.LSV)
			if len(cl.perms) != len(ref.perms) {
				t.Fatalf("evolved perm count %d, want %d", len(cl.perms), len(ref.perms))
			}
			for i := range cl.perms {
				if cl.slots[i] != ref.slots[i] {
					t.Fatalf("perm %d: slot %d, want %d", i, cl.slots[i], ref.slots[i])
				}
				for j := range cl.perms[i] {
					if cl.perms[i][j] != ref.perms[i][j] {
						t.Fatalf("perm %d position %d: %d, want %d", i, j, cl.perms[i][j], ref.perms[i][j])
					}
				}
			}
		}
	}
}

func TestBatchAddSameK1MatchesAddSame(t *testing.T) {
	const n = 12
	st, uPlus, _ := pivotFixture(t, n, 1)

	ref := st.Clone()
	want, err := ref.AddSame(uPlus, splitSources(4, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	cl := st.Clone()
	got, err := NewEngine().BatchAddSame(cl, uPlus, 1, splitSources(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	sameSlice(t, "k=1 batch vs AddSame", got, want)
	sameSlice(t, "k=1 LSV", cl.LSV, ref.LSV)
}

func TestBatchAddErrors(t *testing.T) {
	const n, k = 8, 3
	uPlus, _ := knnBatchPair(t, n, k)
	oldSV := baseValues(n)
	e := NewEngine()

	if _, err := e.BatchDeltaAdd(uPlus, oldSV, k, 0, rng.New(1)); err == nil {
		t.Fatal("BatchDeltaAdd accepted tau=0")
	}
	if _, err := e.BatchDeltaAdd(uPlus, oldSV, k+1, 10, rng.New(1)); err == nil {
		t.Fatal("BatchDeltaAdd accepted a mis-sized game")
	}
	if _, err := e.BatchDeltaAdd(uPlus, oldSV, 0, 10, rng.New(1)); err == nil {
		t.Fatal("BatchDeltaAdd accepted k=0")
	}
	if _, err := BatchDeltaAddSeq(uPlus, oldSV, k, 0, rng.New(1)); err == nil {
		t.Fatal("BatchDeltaAddSeq accepted tau=0")
	}

	st, uPlusP, _ := pivotFixture(t, n, k)
	if _, err := e.BatchAddSame(st.Clone(), uPlusP, k, splitSources(1, k-1)); err == nil {
		t.Fatal("BatchAddSame accepted a short source list")
	}
	if _, err := e.BatchAddSame(st.Clone(), uPlusP, k+1, splitSources(1, k+1)); err == nil {
		t.Fatal("BatchAddSame accepted a mis-sized game")
	}
	noPerms := PivotInit(game.Func{Players: n, U: uPlusP.Value}, 5, false, rng.New(2))
	if _, err := e.BatchAddSame(noPerms, uPlusP, k, splitSources(1, k)); err != ErrNoPermutations {
		t.Fatalf("BatchAddSame without permutations: %v, want ErrNoPermutations", err)
	}
	if _, err := BatchAddSameSeq(noPerms, uPlusP, k, splitSources(1, k)); err != ErrNoPermutations {
		t.Fatalf("BatchAddSameSeq without permutations: %v, want ErrNoPermutations", err)
	}
}
