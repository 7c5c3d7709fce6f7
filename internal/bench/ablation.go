package bench

import (
	"fmt"
	"time"

	"dynshap/internal/bitset"
	"dynshap/internal/core"
	"dynshap/internal/game"
	"dynshap/internal/rng"
	"dynshap/internal/stat"
)

// Ablation experiments beyond the paper's artifacts (DESIGN.md §7). They
// probe the design choices the paper asserts but does not measure: the
// utility cache behind the pivot reuse claim, the TMC tolerance, the KNN+
// curve family, and how Shapley-guided data selection compares with the
// leave-one-out baseline the introduction dismisses.

// ablationCacheReuse (A1) quantifies the utility cache: model trainings for
// a Pivot-s addition with and without the warm cache from initialisation.
func (r *Runner) ablationCacheReuse() (*Table, error) {
	n := r.cfg.N
	tau := r.cfg.TauFactor * n
	seed := r.cfg.Seed + 41
	sc := r.irisScenario(n, seed)
	added := sc.extra[:1]

	prods, err := r.initialize(sc, core.InitOptions{KeepPerms: true}, tau, seed+1)
	if err != nil {
		return nil, err
	}

	measure := func(warm bool) (int64, float64) {
		st := prods.res.Pivot.Clone()
		uPlus := sc.util.Append(added...)
		var g game.Game
		var cache *game.Cached
		if warm {
			cache = prods.cache.Fork(uPlus)
			g = cache
		} else {
			cache = game.NewCached(uPlus)
			g = cache
		}
		start := time.Now()
		if _, err := core.NewEngine().BatchAddSame(st, g, 1, []*rng.Source{rng.New(seed + 2)}); err != nil {
			panic(err) // exercised paths validated by unit tests
		}
		secs := time.Since(start).Seconds()
		_, misses := cache.Stats()
		return misses, secs
	}

	warmEvals, warmSecs := measure(true)
	coldEvals, coldSecs := measure(false)

	t := &Table{
		Columns: []string{"configuration", "model trainings", "seconds"},
		Rows: [][]string{
			{"Pivot-s, warm cache (reuse)", fmt.Sprintf("%d", warmEvals), fmt.Sprintf("%.4g", warmSecs)},
			{"Pivot-s, cold cache (no reuse)", fmt.Sprintf("%d", coldEvals), fmt.Sprintf("%.4g", coldSecs)},
		},
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("n=%d, τ=%d; the warm row retrains only suffix coalitions containing the new point — the paper's \"half the computation\" claim made concrete", n, tau))
	return t, nil
}

// ablationTMCTolerance (A2) sweeps the TMC truncation tolerance: looser
// tolerances save trainings but bias the estimates.
func (r *Runner) ablationTMCTolerance() (*Table, error) {
	n := r.cfg.N
	tau := r.cfg.TauFactor * n
	seed := r.cfg.Seed + 42
	sc := r.irisScenario(n, seed)
	counting := game.NewCounting(game.NewCached(sc.util))
	bench := core.MonteCarloParallel(game.NewCached(sc.util), r.cfg.BenchTauFactor*n, r.cfg.Workers, rng.New(seed+1))

	t := &Table{Columns: []string{"tolerance", "MSE", "utility evals"}}
	for _, tol := range []float64{0, 1e-12, 1e-3, 1e-2, 5e-2, 1e-1} {
		counting.Reset()
		est := core.TruncatedMonteCarlo(counting, tau, tol, rng.New(seed+2))
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0e", tol),
			sci(stat.MSE(est, bench)),
			fmt.Sprintf("%d", counting.Calls()),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("n=%d, τ=%d; tolerance 0 is plain MC; the paper fixes 1e-12 (truncation restricted to positions ≥ n/2)", n, tau))
	return t, nil
}

// ablationKNNPlusCurves (A3) varies the KNN+ polynomial degree and
// subsample size, measuring MSE after one addition.
func (r *Runner) ablationKNNPlusCurves() (*Table, error) {
	n := r.cfg.N
	seed := r.cfg.Seed + 43
	sc := r.irisScenario(n, seed)
	added := sc.extra[:1]
	prods, err := r.initialize(sc, core.InitOptions{}, r.cfg.BenchTauFactor*n, seed+1)
	if err != nil {
		return nil, err
	}
	bench := r.benchmarkAdd(sc, added, r.cfg.BenchTauFactor*(n+1), seed+2)
	knnSV, err := core.KNNAdd(prods.res.Pivot.SV, sc.train, added, 5)
	if err != nil {
		return nil, err
	}

	t := &Table{Columns: []string{"configuration", "MSE", "seconds"}}
	t.Rows = append(t.Rows, []string{"KNN (no curve)", sci(stat.MSE(knnSV, bench)), "~0"})
	sub := n / 2
	if sub < 10 {
		sub = n
	}
	for _, cfg := range []core.KNNPlusConfig{
		{Degree: 1, K: 5},
		{Degree: 2, K: 5},
		{Degree: 3, K: 5},
		{Degree: 2, K: 5, SubsampleSize: sub},
	} {
		g := prods.cache.Fork(sc.util)
		start := time.Now()
		sv, err := core.KNNPlusAdd(g, sc.train, prods.res.Pivot.SV, added, nil, cfg, rng.New(seed+3))
		if err != nil {
			return nil, err
		}
		secs := time.Since(start).Seconds()
		label := fmt.Sprintf("KNN+ degree %d", cfg.Degree)
		if cfg.SubsampleSize > 0 {
			label = fmt.Sprintf("KNN+ degree %d, subsample %d", cfg.Degree, cfg.SubsampleSize)
		}
		t.Rows = append(t.Rows, []string{label, sci(stat.MSE(sv, bench)), fmt.Sprintf("%.4g", secs)})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("n=%d, one added point; curve fitting dominates KNN+ cost", n))
	return t, nil
}

// ablationSelection (A4) reproduces the introduction's motivation: rank
// points by Shapley value vs leave-one-out vs random, keep the top half,
// retrain, and compare test accuracy.
func (r *Runner) ablationSelection() (*Table, error) {
	n := r.cfg.N
	seed := r.cfg.Seed + 44
	sc := r.irisScenario(n, seed)
	g := game.NewCached(sc.util)
	sv := core.MonteCarloParallel(g, r.cfg.BenchTauFactor*n, r.cfg.Workers, rng.New(seed+1))
	loo := core.LeaveOneOut(g)

	keep := n / 2
	accOf := func(scores []float64) float64 {
		idx := topK(scores, keep)
		s := bitset.FromIndices(n, idx...)
		return g.Value(s)
	}
	rnd := rng.New(seed + 2)
	randomIdx := rnd.Sample(n, keep)
	full := g.Value(bitset.Full(n))

	t := &Table{
		Columns: []string{"selection rule", "test accuracy (top 50%)"},
		Rows: [][]string{
			{"all points", fmt.Sprintf("%.4f", full)},
			{"Shapley value (top)", fmt.Sprintf("%.4f", accOf(sv))},
			{"leave-one-out (top)", fmt.Sprintf("%.4f", accOf(loo))},
			{"random", fmt.Sprintf("%.4f", g.Value(bitset.FromIndices(n, randomIdx...)))},
		},
	}
	t.Notes = append(t.Notes,
		"the introduction's premise (Ghorbani & Zou): SV-ranked selection retains more useful points than LOO")
	return t, nil
}

// topK returns the indices of the k largest scores.
func topK(scores []float64, k int) []int {
	idx := seqInts(0, len(scores))
	// partial selection sort — n is small here.
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < len(idx); j++ {
			if scores[idx[j]] > scores[idx[best]] {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	return idx[:k]
}
