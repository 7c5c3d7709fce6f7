package core

import (
	"math"
	"testing"

	"dynshap/internal/bitset"
	"dynshap/internal/game"
	"dynshap/internal/rng"
	"dynshap/internal/stat"
)

// deltaAdd and deltaDelete run the single-point delta walks — the batch
// engine at k = 1 — on a fresh default engine.
func deltaAdd(gPlus game.Game, oldSV []float64, tau int, r *rng.Source) ([]float64, error) {
	return NewEngine().BatchDeltaAdd(gPlus, oldSV, 1, tau, r)
}

func deltaDelete(g game.Game, oldSV []float64, p, tau int, r *rng.Source) ([]float64, error) {
	return NewEngine().BatchDeltaDelete(g, oldSV, []int{p}, tau, r)
}

func TestDeltaAddMatchesExact(t *testing.T) {
	gPlus := tableGame{n: 7, seed: 41}
	gD := restrictFirst(gPlus, 6)
	oldSV := Exact(gD)
	got, err := deltaAdd(gPlus, oldSV, 30000, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	want := Exact(gPlus)
	if mse := stat.MSE(got, want); mse > 1e-4 {
		t.Fatalf("DeltaAdd MSE = %v\n got %v\nwant %v", mse, got, want)
	}
}

func TestDeltaAddNewPointUnbiased(t *testing.T) {
	// The corrected new-point estimator (empty stratum included, ÷(n+1))
	// must converge to the exact value of the added player.
	gPlus := tableGame{n: 6, seed: 42}
	gD := restrictFirst(gPlus, 5)
	oldSV := Exact(gD)
	got, err := deltaAdd(gPlus, oldSV, 50000, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	want := Exact(gPlus)
	if d := math.Abs(got[5] - want[5]); d > 0.01 {
		t.Fatalf("new point SV = %v, want %v", got[5], want[5])
	}
}

func TestDeltaAddPropagatesOldError(t *testing.T) {
	// Delta estimates changes, so a constant shift in oldSV survives intact.
	gPlus := tableGame{n: 5, seed: 43}
	gD := restrictFirst(gPlus, 4)
	oldSV := Exact(gD)
	shifted := make([]float64, len(oldSV))
	for i := range shifted {
		shifted[i] = oldSV[i] + 0.1
	}
	a, err := deltaAdd(gPlus, oldSV, 2000, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := deltaAdd(gPlus, shifted, 2000, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if math.Abs((b[i]-a[i])-0.1) > 1e-12 {
			t.Fatalf("shift not preserved at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestDeltaAddValidation(t *testing.T) {
	gPlus := tableGame{n: 5, seed: 44}
	if _, err := deltaAdd(gPlus, make([]float64, 3), 10, rng.New(4)); err == nil {
		t.Fatal("size mismatch should fail")
	}
	if _, err := deltaAdd(gPlus, make([]float64, 4), 0, rng.New(4)); err == nil {
		t.Fatal("τ=0 should fail")
	}
}

func TestDeltaDeleteMatchesExact(t *testing.T) {
	g := tableGame{n: 7, seed: 45}
	oldSV := Exact(g)
	for _, p := range []int{0, 3, 6} {
		got, err := deltaDelete(g, oldSV, p, 30000, rng.New(uint64(p+5)))
		if err != nil {
			t.Fatal(err)
		}
		if got[p] != 0 {
			t.Fatalf("deleted entry %d nonzero: %v", p, got[p])
		}
		wantSub := Exact(game.NewRestrict(g, p))
		// Re-expand to original indexing for comparison.
		want := make([]float64, 7)
		ri := 0
		for i := 0; i < 7; i++ {
			if i == p {
				continue
			}
			want[i] = wantSub[ri]
			ri++
		}
		if mse := stat.MSE(got, want); mse > 1e-4 {
			t.Fatalf("deltaDelete(p=%d) MSE = %v\n got %v\nwant %v", p, mse, got, want)
		}
	}
}

func TestDeltaDeleteValidation(t *testing.T) {
	g := tableGame{n: 4, seed: 46}
	sv := make([]float64, 4)
	if _, err := deltaDelete(g, make([]float64, 3), 0, 10, rng.New(1)); err == nil {
		t.Fatal("size mismatch should fail")
	}
	if _, err := deltaDelete(g, sv, 4, 10, rng.New(1)); err == nil {
		t.Fatal("out-of-range point should fail")
	}
	if _, err := deltaDelete(g, sv, -1, 10, rng.New(1)); err == nil {
		t.Fatal("negative point should fail")
	}
	if _, err := deltaDelete(g, sv, 0, 0, rng.New(1)); err == nil {
		t.Fatal("τ=0 should fail")
	}
}

func TestDeltaDeleteSinglePlayerGame(t *testing.T) {
	g := tableGame{n: 1, seed: 47}
	got, err := deltaDelete(g, []float64{0.4}, 0, 10, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("single-player delete = %v", got)
	}
}

// interactionGame models the ML regime the delta-based algorithm targets:
// utilities are dominated by an additive part while the new point (player
// n−1) only interacts weakly, so differential marginal contributions have a
// much smaller range than raw ones.
type interactionGame struct {
	n int
}

func (g interactionGame) N() int { return g.n }

func (g interactionGame) Value(s bitset.Set) float64 {
	v := 0.0
	s.ForEach(func(i int) { v += 1 / float64(i+2) })
	if s.Contains(g.n - 1) {
		// Weak pairwise interaction between the pivot and the others.
		v += 0.01 * float64(s.Len()-1)
	}
	return v
}

func TestDeltaAddNeedsFewerSamplesThanMC(t *testing.T) {
	// The headline claim (Theorem 2 / §IV-B): at equal τ, estimating changes
	// has lower error than re-estimating absolute values, because the DMC
	// range d is far smaller than the marginal-contribution range r.
	gPlus := interactionGame{n: 9}
	gD := restrictFirst(gPlus, 8)
	oldSV := Exact(gD)
	want := Exact(gPlus)
	const tau, reps = 30, 40
	var mseDelta, mseMC float64
	for rep := 0; rep < reps; rep++ {
		seed := uint64(1000 + rep)
		d, err := deltaAdd(gPlus, oldSV, tau, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		m := MonteCarlo(gPlus, tau, rng.New(seed+5000))
		mseDelta += stat.MSE(d, want) / reps
		mseMC += stat.MSE(m, want) / reps
	}
	if mseDelta >= mseMC {
		t.Fatalf("Delta MSE %v not below MC MSE %v at τ=%d", mseDelta, mseMC, tau)
	}
	// And the advantage should be substantial (paper observes ~10×).
	if mseDelta > mseMC/2 {
		t.Logf("warning: delta advantage modest: %v vs %v", mseDelta, mseMC)
	}
}

func TestDeltaAddThenDeleteRoundTrip(t *testing.T) {
	// §V-C: delta supports interleaved dynamics. Add the pivot then delete
	// it again; the values of the original players must return near the
	// originals.
	gPlus := tableGame{n: 6, seed: 48}
	gD := restrictFirst(gPlus, 5)
	oldSV := Exact(gD)
	afterAdd, err := deltaAdd(gPlus, oldSV, 20000, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	afterDel, err := deltaDelete(gPlus, afterAdd, 5, 20000, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if d := math.Abs(afterDel[i] - oldSV[i]); d > 0.02 {
			t.Fatalf("round trip drifted at %d: %v vs %v", i, afterDel[i], oldSV[i])
		}
	}
}
