package core

import (
	"runtime"
	"sync"

	"dynshap/internal/bitset"
	"dynshap/internal/game"
	"dynshap/internal/rng"
)

// MonteCarloParallel is MonteCarlo with the τ permutations spread across
// `workers` goroutines (≤0 selects GOMAXPROCS). The paper notes that MC,
// TMC, Pivot-d and Delta parallelise this way (§VII-G, k = 48 threads);
// permutations are independent, so the estimates merge by summation.
// Each worker derives its own RNG stream with Split, so the result is
// deterministic for a given (seed, workers) pair — but NOT equal to the
// serial MonteCarlo stream, which is why it lives apart from the engine.
//
// It stays because it is the only Monte Carlo path that spreads the
// utility evaluations themselves across cores: the engine's producer
// walks every permutation serially and parallelises only the array fills,
// which a plain MC pass does not have. Expensive utilities (model
// trainings) therefore want this form, and the benchmark harnesses use it
// as their large-τ correctness reference.
func MonteCarloParallel(g game.Game, tau, workers int, r *rng.Source) []float64 {
	return parallelPermutationSum(g.N(), tau, workers, r, func(sub *rng.Source, quota int, sv []float64) {
		accumulateMC(g, quota, sub, sv)
	})
}

// accumulateMC runs one worker's share of permutations. It is called once
// per goroutine, so the walker it builds — and any incremental evaluator
// inside — stays worker-local.
func accumulateMC(g game.Game, tau int, r *rng.Source, sv []float64) {
	n := g.N()
	perm := make([]int, n)
	w := newPrefixWalker(g)
	empty := g.Value(bitset.New(n))
	for k := 0; k < tau; k++ {
		r.Perm(perm)
		w.reset()
		prev := empty
		for _, p := range perm {
			cur := w.add(p)
			sv[p] += cur - prev
			prev = cur
		}
	}
}

// parallelPermutationSum runs fn on per-worker quotas summing into per-worker
// accumulators, then merges and divides by τ.
func parallelPermutationSum(n, tau, workers int, r *rng.Source, fn func(sub *rng.Source, quota int, sv []float64)) []float64 {
	sv := make([]float64, n)
	if n == 0 || tau <= 0 {
		return sv
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > tau {
		workers = tau
	}
	partials := make([][]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		quota := tau / workers
		if w < tau%workers {
			quota++
		}
		sub := r.Split()
		partials[w] = make([]float64, n)
		wg.Add(1)
		go func(w, quota int, sub *rng.Source) {
			defer wg.Done()
			fn(sub, quota, partials[w])
		}(w, quota, sub)
	}
	wg.Wait()
	for _, part := range partials {
		for i, v := range part {
			sv[i] += v
		}
	}
	for i := range sv {
		sv[i] /= float64(tau)
	}
	return sv
}
