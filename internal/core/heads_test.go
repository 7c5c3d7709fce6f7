package core

import (
	"math"
	"testing"

	"dynshap/internal/bitset"
	"dynshap/internal/game"
	"dynshap/internal/rng"
	"dynshap/internal/semivalue"
)

// fourHeads is the canonical multi-head configuration the issue names:
// Shapley, Banzhaf, a Beta weighting and Absolute Shapley priced from one
// pass.
func fourHeads() []semivalue.Weighting {
	return []semivalue.Weighting{
		semivalue.Shapley(),
		semivalue.Banzhaf(),
		semivalue.Beta(4, 1),
		semivalue.AbsoluteShapley(),
	}
}

// exactHeads tabulates exact values for every head of ws.
func exactHeads(g game.Game, ws []semivalue.Weighting) [][]float64 {
	return ExactSemivalues(g, ws)
}

func bitEqual(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: entry %d differs: %v vs %v", label, i, got[i], want[i])
		}
	}
}

// ExactSemivalues must agree with an independent brute-force evaluation of
// the semivalue definition (direct subset enumeration with coefficients
// from a separately computed binomial table).
func TestExactSemivaluesDefinition(t *testing.T) {
	g := tableGame{n: 7, seed: 77}
	n := g.N()
	// Independent binomial table.
	choose := make([][]float64, n+1)
	for i := range choose {
		choose[i] = make([]float64, n+1)
		choose[i][0] = 1
		for j := 1; j <= i; j++ {
			choose[i][j] = choose[i-1][j-1] + choose[i-1][j]
		}
	}
	size := 1 << uint(n)
	util := make([]float64, size)
	s := bitset.New(n)
	for mask := 0; mask < size; mask++ {
		s.Clear()
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				s.Add(i)
			}
		}
		util[mask] = g.Value(s)
	}
	got := ExactSemivalues(g, fourHeads())
	for h, w := range fourHeads() {
		p := w.SubsetWeights(n)
		want := make([]float64, n)
		for i := 0; i < n; i++ {
			bit := 1 << uint(i)
			for mask := 0; mask < size; mask++ {
				if mask&bit != 0 {
					continue
				}
				d := w.Transform(util[mask|bit] - util[mask])
				want[i] += p[popcount(mask)] * d
			}
		}
		for i := range want {
			if math.Abs(got[h][i]-want[i]) > 1e-12 {
				t.Fatalf("head %v player %d: %v, want %v", w, i, got[h][i], want[i])
			}
		}
	}
}

// Sampled heads must converge to the exact heads: the one-pass estimator is
// unbiased for every weighting.
func TestMonteCarloSemivaluesConvergence(t *testing.T) {
	g := tableGame{n: 8, seed: 78}
	ws := fourHeads()
	want := exactHeads(g, ws)
	got := MonteCarloSemivalues(g, ws, 60000, rng.New(9))
	for h := range ws {
		for i := range want[h] {
			if d := math.Abs(got[h][i] - want[h][i]); d > 0.02 {
				t.Fatalf("head %v player %d: sampled %v, exact %v (|Δ|=%v)", ws[h], i, got[h][i], want[h][i], d)
			}
		}
	}
}

// The multi-head pass must not perturb the Shapley output: engine
// MonteCarlo with four heads produces bit-identical Shapley values to the
// headless engine AND to the package-level reference, at every worker
// count; and its Shapley head equals that same output bit for bit.
func TestEngineHeadsShapleyBitIdentical(t *testing.T) {
	g := tableGame{n: 12, seed: 79}
	const tau = 400
	ref := MonteCarlo(g, tau, rng.New(5))
	for _, workers := range []int{1, 2, 5} {
		plain := NewEngine(WithWorkers(workers)).MonteCarlo(g, tau, rng.New(5))
		bitEqual(t, "headless engine vs reference", plain, ref)

		e := NewEngine(WithWorkers(workers), WithSemivalues(fourHeads()...))
		sv := e.MonteCarlo(g, tau, rng.New(5))
		bitEqual(t, "multi-head engine Shapley output", sv, ref)
		hv := e.HeadValues()
		if len(hv) != 4 {
			t.Fatalf("workers=%d: %d head slices, want 4", workers, len(hv))
		}
		bitEqual(t, "Shapley head", hv[0], ref)
	}
}

// Engine head values must be identical at every worker count and equal to
// the serial reference estimator for the same seed.
func TestEngineHeadsWorkerInvariance(t *testing.T) {
	g := tableGame{n: 10, seed: 80}
	ws := fourHeads()
	const tau = 300
	want := MonteCarloSemivalues(g, ws, tau, rng.New(6))
	for _, workers := range []int{1, 3, 7} {
		e := NewEngine(WithWorkers(workers), WithSemivalues(ws...))
		e.MonteCarlo(g, tau, rng.New(6))
		hv := e.HeadValues()
		for h := range ws {
			bitEqual(t, "head "+ws[h].String(), hv[h], want[h])
		}
	}
}

// Initialize must fold heads from the same pass: serial and engine paths
// agree bit for bit, the Shapley head equals the pivot SV, and requesting
// heads changes neither SV nor LSV.
func TestInitializeHeads(t *testing.T) {
	g := tableGame{n: 9, seed: 81}
	const tau = 250
	ws := fourHeads()

	base, err := Initialize(g, tau, InitOptions{TrackDeletions: true}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Initialize(g, tau, InitOptions{TrackDeletions: true, Heads: ws}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	bitEqual(t, "SV with heads", res.Pivot.SV, base.Pivot.SV)
	bitEqual(t, "LSV with heads", res.Pivot.LSV, base.Pivot.LSV)
	if len(res.HeadValues) != 4 {
		t.Fatalf("%d head slices, want 4", len(res.HeadValues))
	}
	bitEqual(t, "Shapley head vs SV", res.HeadValues[0], base.Pivot.SV)

	for _, workers := range []int{1, 4} {
		e := NewEngine(WithWorkers(workers))
		eres, err := e.Initialize(g, tau, InitOptions{TrackDeletions: true, Heads: ws}, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		bitEqual(t, "engine SV", eres.Pivot.SV, base.Pivot.SV)
		for h := range ws {
			bitEqual(t, "engine head "+ws[h].String(), eres.HeadValues[h], res.HeadValues[h])
		}
	}
}

// Single-point delta addition with heads: starting from the exact head values of the base
// game, the differential update must land on the exact head values of the
// grown game, for every weighting including the absolute transform.
func TestDeltaAddHeads(t *testing.T) {
	gPlus := tableGame{n: 7, seed: 82}
	gD := restrictFirst(gPlus, 6)
	ws := fourHeads()
	oldSV := Exact(gD)
	e := NewEngine(WithSemivalues(ws...))
	e.SetHeadBase(exactHeads(gD, ws))
	out, err := e.BatchDeltaAdd(gPlus, oldSV, 1, 60000, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	hv := e.HeadValues()
	want := exactHeads(gPlus, ws)
	for h := range ws {
		for i := range want[h] {
			if d := math.Abs(hv[h][i] - want[h][i]); d > 0.02 {
				t.Fatalf("head %v player %d: %v, want %v (|Δ|=%v)", ws[h], i, hv[h][i], want[h][i], d)
			}
		}
	}
	// The Shapley head and the Shapley output are the same estimator up to
	// association of the same additions.
	for i := range out {
		if d := math.Abs(hv[0][i] - out[i]); d > 1e-9 {
			t.Fatalf("Shapley head drifts from output at %d: %v vs %v", i, hv[0][i], out[i])
		}
	}
}

// Single-point delta deletion with heads: from the exact heads of the full game, the
// differential must land on the exact heads of the survivor game.
func TestDeltaDeleteHeads(t *testing.T) {
	g := tableGame{n: 7, seed: 83}
	p := 3
	ws := fourHeads()
	oldSV := Exact(g)
	e := NewEngine(WithSemivalues(ws...))
	e.SetHeadBase(exactHeads(g, ws))
	out, err := e.BatchDeltaDelete(g, oldSV, []int{p}, 60000, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	hv := e.HeadValues()
	gMinus := game.NewRestrict(g, p)
	want := exactHeads(gMinus, ws)
	for h := range ws {
		if hv[h][p] != 0 {
			t.Fatalf("head %v deleted entry = %v, want 0", ws[h], hv[h][p])
		}
		for i := 0; i < g.N(); i++ {
			if i == p {
				continue
			}
			wi := i
			if i > p {
				wi = i - 1
			}
			if d := math.Abs(hv[h][i] - want[h][wi]); d > 0.02 {
				t.Fatalf("head %v survivor %d: %v, want %v (|Δ|=%v)", ws[h], i, hv[h][i], want[h][wi], d)
			}
		}
	}
	for i := range out {
		if d := math.Abs(hv[0][i] - out[i]); d > 1e-9 {
			t.Fatalf("Shapley head drifts from output at %d: %v vs %v", i, hv[0][i], out[i])
		}
	}
}

// Deleting every remaining player leaves nothing to estimate, but a
// head-carrying caller still compacts one head slice per configured head:
// they must come back zeroed and full-length, like the values.
func TestBatchDeltaDeleteEveryPlayerHeads(t *testing.T) {
	ws := fourHeads()
	for _, points := range [][]int{{0}, {2, 0, 1}} {
		n := len(points)
		e := NewEngine(WithSemivalues(ws...))
		e.SetHeadBase(exactHeads(tableGame{n: n, seed: 86}, ws))
		out, err := e.BatchDeltaDelete(tableGame{n: n, seed: 86}, make([]float64, n), points, 10, rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		hv := e.HeadValues()
		if len(hv) != len(ws) {
			t.Fatalf("n=%d: %d head slices, want %d", n, len(hv), len(ws))
		}
		for h := range ws {
			bitEqual(t, "head "+ws[h].String(), hv[h], make([]float64, n))
		}
		bitEqual(t, "values", out, make([]float64, n))
	}
}

// BatchDeltaAdd head values must be invariant to the worker option at
// k = 1 (a single point always walks serially) and to the worker count at
// k > 1.
func TestBatchDeltaAddHeads(t *testing.T) {
	gPlus := tableGame{n: 8, seed: 84}
	gD := restrictFirst(gPlus, 7)
	ws := fourHeads()
	base := exactHeads(gD, ws)
	oldSV := Exact(gD)
	const tau = 500

	single := NewEngine(WithSemivalues(ws...))
	single.SetHeadBase(base)
	if _, err := single.BatchDeltaAdd(gPlus, oldSV, 1, tau, rng.New(10)); err != nil {
		t.Fatal(err)
	}
	batch := NewEngine(WithWorkers(4), WithSemivalues(ws...))
	batch.SetHeadBase(base)
	if _, err := batch.BatchDeltaAdd(gPlus, oldSV, 1, tau, rng.New(10)); err != nil {
		t.Fatal(err)
	}
	hs, hb := single.HeadValues(), batch.HeadValues()
	for h := range ws {
		bitEqual(t, "k=1 head "+ws[h].String(), hb[h], hs[h])
	}

	// Worker invariance at k = 3.
	gPlus3 := tableGame{n: 9, seed: 85}
	gD3 := restrictFirst(gPlus3, 6)
	base3 := exactHeads(gD3, ws)
	old3 := Exact(gD3)
	var ref [][]float64
	for _, workers := range []int{1, 2, 3} {
		e := NewEngine(WithWorkers(workers), WithSemivalues(ws...), WithChunkSize(16))
		e.SetHeadBase(base3)
		if _, err := e.BatchDeltaAdd(gPlus3, old3, 3, 200, rng.New(11)); err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = e.HeadValues()
			continue
		}
		for h := range ws {
			bitEqual(t, "batch head "+ws[h].String(), e.HeadValues()[h], ref[h])
		}
	}
}

// MergeSemivalue must recover linear heads from the deletion store: exactly
// from an exact store, within sampling error from a sampled store, and
// refuse the absolute transform.
func TestMergeSemivalue(t *testing.T) {
	g := tableGame{n: 8, seed: 86}
	p := 2
	gMinus := game.NewRestrict(g, p)
	linear := []semivalue.Weighting{semivalue.Shapley(), semivalue.Banzhaf(), semivalue.Beta(4, 1)}
	want := exactHeads(gMinus, linear)

	ds := PreprocessDeletionExact(g)
	for h, w := range linear {
		got, err := ds.MergeSemivalue(p, w)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < g.N(); i++ {
			if i == p {
				continue
			}
			wi := i
			if i > p {
				wi = i - 1
			}
			if d := math.Abs(got[i] - want[h][wi]); d > 1e-9 {
				t.Fatalf("exact store head %v survivor %d: %v, want %v", w, i, got[i], want[h][wi])
			}
		}
	}
	// Shapley through MergeSemivalue agrees with the historic Merge.
	historic, err := ds.Merge(p)
	if err != nil {
		t.Fatal(err)
	}
	viaHead, err := ds.MergeSemivalue(p, semivalue.Shapley())
	if err != nil {
		t.Fatal(err)
	}
	for i := range historic {
		if d := math.Abs(historic[i] - viaHead[i]); d > 1e-12 {
			t.Fatalf("Shapley MergeSemivalue differs from Merge at %d: %v vs %v", i, viaHead[i], historic[i])
		}
	}

	// Sampled store.
	sds := PreprocessDeletion(g, 60000, rng.New(12))
	for h, w := range linear {
		got, err := sds.MergeSemivalue(p, w)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < g.N(); i++ {
			if i == p {
				continue
			}
			wi := i
			if i > p {
				wi = i - 1
			}
			if d := math.Abs(got[i] - want[h][wi]); d > 0.03 {
				t.Fatalf("sampled store head %v survivor %d: %v, want %v (|Δ|=%v)", w, i, got[i], want[h][wi], d)
			}
		}
	}

	if _, err := sds.MergeSemivalue(p, semivalue.AbsoluteShapley()); err == nil {
		t.Fatal("MergeSemivalue accepted an absolute-transform head")
	}
	if _, err := sds.MergeSemivalue(-1, semivalue.Banzhaf()); err == nil {
		t.Fatal("MergeSemivalue accepted an out-of-range point")
	}
}

// TruncatedMonteCarlo heads: the Shapley head must track the truncated
// output bit for bit (both see the same zero-credited tails).
func TestTruncatedMonteCarloHeads(t *testing.T) {
	g := monotoneGame{n: 12, seed: 87}
	const tau, tol = 300, 0.05
	ref := NewEngine().TruncatedMonteCarlo(g, tau, tol, rng.New(13))
	e := NewEngine(WithSemivalues(fourHeads()...))
	sv := e.TruncatedMonteCarlo(g, tau, tol, rng.New(13))
	bitEqual(t, "TMC Shapley output with heads", sv, ref)
	bitEqual(t, "TMC Shapley head", e.HeadValues()[0], ref)
}

// Beta(1,1) must price like Shapley through the full sampled pipeline.
func TestBetaOneOneTracksShapleyHead(t *testing.T) {
	g := tableGame{n: 9, seed: 88}
	ws := []semivalue.Weighting{semivalue.Shapley(), semivalue.Beta(1, 1)}
	got := MonteCarloSemivalues(g, ws, 2000, rng.New(14))
	for i := range got[0] {
		if d := math.Abs(got[0][i] - got[1][i]); d > 1e-9 {
			t.Fatalf("player %d: shapley %v, beta(1,1) %v", i, got[0][i], got[1][i])
		}
	}
}
