package core

import (
	"testing"

	"dynshap/internal/rng"
	"dynshap/internal/stat"
)

// The delta addition on a multi-worker engine: a single point always walks
// serially, so the worker option must leave the estimate accurate.
func TestDeltaAddParallelMatchesExact(t *testing.T) {
	gPlus := tableGame{n: 7, seed: 111}
	gD := restrictFirst(gPlus, 6)
	oldSV := Exact(gD)
	got, err := NewEngine(WithWorkers(4)).BatchDeltaAdd(gPlus, oldSV, 1, 30000, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	want := Exact(gPlus)
	if mse := stat.MSE(got, want); mse > 1e-4 {
		t.Fatalf("4-worker delta add MSE = %v", mse)
	}
}

// The striped batch walk (per-point with-chains split across workers) is
// deterministic for a fixed seed and identical to the serial walk.
func TestDeltaAddParallelDeterministic(t *testing.T) {
	gPlus := tableGame{n: 8, seed: 112}
	oldSV := make([]float64, 5)
	run := func(workers int) []float64 {
		out, err := NewEngine(WithWorkers(workers), WithChunkSize(16)).BatchDeltaAdd(gPlus, oldSV, 3, 500, rng.New(9))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(3), run(3)
	if maxAbsDiff(a, b) != 0 {
		t.Fatal("same-seed striped delta add differs")
	}
	bitEqual(t, "3 workers vs serial", a, run(1))
}

func TestDeltaAddParallelValidation(t *testing.T) {
	gPlus := tableGame{n: 5, seed: 113}
	e := NewEngine(WithWorkers(2))
	if _, err := e.BatchDeltaAdd(gPlus, make([]float64, 4), 2, 10, rng.New(1)); err == nil {
		t.Fatal("size mismatch should fail")
	}
	if _, err := e.BatchDeltaAdd(gPlus, make([]float64, 3), 2, 0, rng.New(1)); err == nil {
		t.Fatal("τ=0 should fail")
	}
}

// A worker count above both τ and the batch size clamps instead of
// spawning idle stripes, and still lands on the serial result.
func TestParallelWorkersClampedToTau(t *testing.T) {
	gPlus := tableGame{n: 5, seed: 117}
	oldSV := make([]float64, 3)
	got, err := NewEngine(WithWorkers(64)).BatchDeltaAdd(gPlus, oldSV, 2, 2, rng.New(8))
	if err != nil {
		t.Fatalf("clamped workers failed: %v", err)
	}
	want, err := NewEngine(WithWorkers(1)).BatchDeltaAdd(gPlus, oldSV, 2, 2, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	bitEqual(t, "64 workers vs serial", got, want)
}
