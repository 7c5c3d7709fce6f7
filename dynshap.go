// Package dynshap is a library for data valuation with Shapley values on
// dynamic datasets, reproducing "Dynamic Shapley Value Computation"
// (Zhang, Xia, Sun, Liu, Xiong, Pei, Ren — ICDE 2023).
//
// The Shapley value of a training point is its average marginal
// contribution to a model's test utility over all orderings of the training
// set — the unique attribution satisfying balance, symmetry, additivity and
// the zero element. Exact computation is #P-hard; this library provides the
// standard Monte Carlo estimators and, crucially, the paper's *dynamic*
// algorithms that update the values when points are added or deleted at a
// fraction of the cost of recomputation:
//
//   - Pivot-based addition (Algorithms 2–4): reuse the half of every
//     sampled permutation that precedes the new point.
//   - Delta-based addition/deletion (Algorithms 5, 8): estimate the
//     *change* of each value from differential marginal contributions,
//     which converge with far fewer samples (Theorems 2–4).
//   - YN-NN / YNN-NNN deletion (Algorithms 6–7, Lemma 4): recover exact
//     post-deletion values from utility arrays filled for free during the
//     original computation — no new model trainings at all.
//   - KNN / KNN+ heuristics (Algorithms 9–10): feature-similarity-based
//     instant estimates.
//
// # Quick start
//
//	train, test := dynshap.IrisLike(150, 1).Split(0.7)
//	s := dynshap.NewSession(train, test, dynshap.SVM{},
//	    dynshap.WithSamples(2000), dynshap.WithSeed(42),
//	    dynshap.WithTrackDeletions())
//	if err := s.Init(); err != nil { ... }
//	values := s.Values()                                  // one per point
//	values, _ = s.Add(newPoints, dynshap.AlgoDelta)       // incremental
//	values, _ = s.Delete([]int{3}, dynshap.AlgoYNNN)      // exact, instant
//
// The Session works over any classifier implementing Trainer; SVM (Pegasos),
// KNNClassifier and LogReg ship with the library. Lower-level estimators
// operating on arbitrary cooperative games are exposed as functions
// (ExactShapley, MonteCarloShapley, …) for uses beyond machine learning.
package dynshap

import (
	"fmt"
	"io"

	"dynshap/internal/bitset"
	"dynshap/internal/core"
	"dynshap/internal/dataset"
	"dynshap/internal/game"
	"dynshap/internal/journal"
	"dynshap/internal/ml"
	"dynshap/internal/rng"
	"dynshap/internal/semivalue"
	"dynshap/internal/stat"
)

// Re-exported substrate types. They alias the internal implementations so
// downstream code can name them without importing internal packages.
type (
	// Dataset is an ordered collection of labelled feature vectors.
	Dataset = dataset.Dataset
	// Point is one labelled observation.
	Point = dataset.Point
	// Trainer fits a classifier to a training set; implement it to value
	// data under your own model.
	Trainer = ml.Trainer
	// Classifier predicts a label for a feature vector.
	Classifier = ml.Classifier
	// SVM is a linear support-vector machine trained with Pegasos SGD.
	SVM = ml.SVM
	// KNNClassifier is the k-nearest-neighbours classifier.
	KNNClassifier = ml.KNN
	// SoftKNNClassifier is the k-NN trainer scored with Jia et al.'s SOFT
	// utility — mean over test points of (#same-label among the k nearest)/k
	// — the one utility whose Shapley values admit an exact closed form.
	// Sessions built with it maintain EXACT values through Init, Add and
	// Delete (AlgoExactKNN, routed automatically by AlgoAuto) with zero
	// model trainings at any n.
	SoftKNNClassifier = ml.SoftKNN
	// LogReg is logistic regression trained with SGD.
	LogReg = ml.LogReg
	// NaiveBayes is the Gaussian naive Bayes classifier.
	NaiveBayes = ml.NaiveBayes
	// Game is a cooperative game: a player count and a coalition utility.
	Game = game.Game
	// GameFunc adapts a plain function to the Game interface.
	GameFunc = game.Func
	// Coalition is a set of players, represented as a bitset. Custom Game
	// implementations receive coalitions in this form.
	Coalition = bitset.Set
	// KNNPlusConfig parameterises the KNN+ heuristic.
	KNNPlusConfig = core.KNNPlusConfig
	// CurveModel holds KNN+'s fitted similarity→ΔSV curves.
	CurveModel = core.CurveModel
	// StoreBackend selects the storage implementation behind the YN-NN /
	// YNN-NNN deletion arrays (see WithStoreBackend / WithStoreSpill).
	StoreBackend = core.BackendKind
)

// Deletion-store backends, for WithStoreBackend.
const (
	// StoreDense64 is the historic dense float64 layout: exact and the
	// default.
	StoreDense64 = core.BackendDense64
	// StoreTiled32 stores float32 entries in row-aligned tiles: half the
	// memory, bounded rounding drift (DESIGN.md §15).
	StoreTiled32 = core.BackendTiled32
	// StoreSpill32 is the tiled float32 layout in mmap-backed scratch
	// files — deletion stores larger than RAM (see WithStoreSpill).
	StoreSpill32 = core.BackendSpill32
)

// NewDataset builds a Dataset from points, inferring the label count.
func NewDataset(points []Point) *Dataset { return dataset.New(points) }

// NewCoalition returns an empty coalition with capacity for n players.
func NewCoalition(n int) Coalition { return bitset.New(n) }

// CoalitionOf returns a coalition of capacity n containing the given players.
func CoalitionOf(n int, players ...int) Coalition { return bitset.FromIndices(n, players...) }

// FullCoalition returns the grand coalition of all n players.
func FullCoalition(n int) Coalition { return bitset.Full(n) }

// LoadCSV reads a headerless CSV of feature…,label rows.
func LoadCSV(path string) (*Dataset, error) { return dataset.LoadCSV(path) }

// IrisLike generates a synthetic dataset with the class structure and
// feature statistics of UCI Iris (3 balanced classes, 4 features).
func IrisLike(total int, seed uint64) *Dataset {
	return dataset.IrisLike(rng.New(seed), total)
}

// AdultLike generates a synthetic dataset with the shape of the paper's
// UCI Adult sample (binary label, 3 numeric features, ~24% positive).
func AdultLike(total int, seed uint64) *Dataset {
	return dataset.AdultLike(rng.New(seed), total)
}

// Algorithm selects how a Session computes or updates Shapley values.
type Algorithm int

const (
	// AlgoMonteCarlo recomputes from scratch by permutation sampling
	// (Algorithm 1) — the paper's baseline.
	AlgoMonteCarlo Algorithm = iota
	// AlgoTruncatedMC recomputes with Ghorbani–Zou truncation.
	AlgoTruncatedMC
	// AlgoBase keeps original values and assigns added points the average
	// original value — the paper's "Base" baseline (additions only).
	AlgoBase
	// AlgoPivotSame is the pivot-based algorithm reusing the stored
	// permutations (Algorithm 3; additions only, requires
	// WithKeepPermutations).
	AlgoPivotSame
	// AlgoPivotDifferent is the pivot-based algorithm with fresh
	// permutations (Algorithm 4; additions only).
	AlgoPivotDifferent
	// AlgoDelta estimates value changes from differential marginal
	// contributions (Algorithm 5 for additions, 8 for deletions).
	AlgoDelta
	// AlgoDeltaBatch is the batched delta walk: one permutation pass
	// walks a shared chain once and evaluates every pending point's
	// differential contributions against it, with per-point accumulators
	// striped across workers. For additions the shared chain is the
	// no-pivot walk and each appended point is valued against the
	// pre-batch base; for deletions it is the common-survivors walk and
	// each departing point is priced against the fixed pre-batch set.
	AlgoDeltaBatch
	// AlgoPivotSameBatch is the batched Pivot-s (requires
	// WithKeepPermutations). For additions the stored permutations are
	// threaded through all pending pivot insertions in one pass,
	// bit-identical to applying AlgoPivotSame per point in sequence. For
	// deletions the permutations EVOLVE through the removals (subsequences
	// of uniform random orders stay uniform) and are walked once in the
	// post-delete game — the only deletion that keeps the pivot artifact
	// alive for later additions.
	AlgoPivotSameBatch
	// AlgoYNNN recovers exact post-deletion values from the YN-NN /
	// YNN-NNN arrays (Algorithms 6–7; deletions only, requires
	// WithTrackDeletions or WithMultiDelete).
	AlgoYNNN
	// AlgoKNN is the feature-similarity heuristic (Algorithm 9).
	AlgoKNN
	// AlgoKNNPlus additionally shifts original values along fitted
	// similarity→change curves (Algorithm 10).
	AlgoKNNPlus
	// AlgoExactKNN computes and maintains EXACT Shapley values through the
	// closed-form sorted-neighbour recurrence of Jia et al. (VLDB 2019) —
	// no permutations, no model trainings, no estimation error. Available
	// for sessions built with SoftKNNClassifier and the distance kernel
	// enabled: Init sorts each test point's distance column once
	// (O(m·n log n)), Add binary-inserts into the maintained orders and
	// recomputes only the affected rank suffix (O(m·(log n + suffix))),
	// Delete tombstones through the kernel's column masking. The dynamic
	// path is exactly equal — bit for bit — to recomputing from scratch
	// after every update.
	AlgoExactKNN
	// AlgoAuto lets the session's planner pick the cheapest valid algorithm
	// for each update from the artifacts it actually holds: the exact
	// closed-form k-NN estimator whenever the session maintains one
	// (SoftKNNClassifier + kernel — nothing sampled can beat exact at zero
	// trainings), exact YN-NN / YNN-NNN merges when the arrays are fresh
	// and cover the request, pivot replay when permutations were retained,
	// delta otherwise, with a Monte Carlo fallback for bulk updates. The
	// decision and its rationale are recorded in the session journal (see
	// Session.History).
	AlgoAuto
)

// String returns the paper's name for the algorithm.
func (a Algorithm) String() string {
	switch a {
	case AlgoMonteCarlo:
		return "MC"
	case AlgoTruncatedMC:
		return "TMC"
	case AlgoBase:
		return "Base"
	case AlgoPivotSame:
		return "Pivot-s"
	case AlgoPivotDifferent:
		return "Pivot-d"
	case AlgoDelta:
		return "Delta"
	case AlgoDeltaBatch:
		return "Delta-batch"
	case AlgoPivotSameBatch:
		return "Pivot-s-batch"
	case AlgoYNNN:
		return "YN-NN"
	case AlgoKNN:
		return "KNN"
	case AlgoKNNPlus:
		return "KNN+"
	case AlgoExactKNN:
		return "Exact-KNN"
	case AlgoAuto:
		return "Auto"
	default:
		return "unknown"
	}
}

// ParseAlgorithm is the inverse of Algorithm.String: it resolves a paper
// name ("MC", "Delta", "YN-NN", …) to the Algorithm constant. The journal
// records algorithms by name, so replay and the CLI round-trip through
// this.
func ParseAlgorithm(name string) (Algorithm, error) {
	for a := AlgoMonteCarlo; a <= AlgoAuto; a++ {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("dynshap: unknown algorithm %q", name)
}

// ExactShapley returns exact Shapley values by complete enumeration
// (≤ 24 players).
func ExactShapley(g Game) []float64 { return core.Exact(g) }

// MonteCarloShapley approximates Shapley values with tau sampled
// permutations (Algorithm 1).
func MonteCarloShapley(g Game, tau int, seed uint64) []float64 {
	return core.MonteCarlo(g, tau, rng.New(seed))
}

// MonteCarloShapleyParallel spreads the permutations over the given number
// of workers (≤0 selects GOMAXPROCS).
func MonteCarloShapleyParallel(g Game, tau, workers int, seed uint64) []float64 {
	return core.MonteCarloParallel(g, tau, workers, rng.New(seed))
}

// TruncatedMonteCarloShapley approximates Shapley values with truncation
// tolerance tol (Ghorbani–Zou TMC).
func TruncatedMonteCarloShapley(g Game, tau int, tol float64, seed uint64) []float64 {
	return core.TruncatedMonteCarlo(g, tau, tol, rng.New(seed))
}

// Game-level dynamic algorithms. The paper's methods apply to any
// cooperative game with a characteristic utility function, not only to
// machine-learning data valuation (§I); these wrappers expose them over the
// Game interface directly.
type (
	// PivotState carries the pivot algorithms' maintained state (SV + LSV,
	// optionally the sampled permutations).
	PivotState = core.PivotState
	// DeletionArrays is the YN-NN structure enabling exact post-deletion
	// values without new utility evaluations.
	DeletionArrays = core.DeletionStore
	// MultiDeletionArrays is the YNN-NNN structure for deleting d points.
	MultiDeletionArrays = core.MultiDeletionStore
)

// NewPivotState runs Algorithm 2 over g: Monte Carlo Shapley estimation
// that simultaneously accumulates the LSV needed by the pivot-based
// addition algorithms. keepPerms enables AddSame (Pivot-s).
func NewPivotState(g Game, tau int, keepPerms bool, seed uint64) *PivotState {
	return core.PivotInit(g, tau, keepPerms, rng.New(seed))
}

// PreprocessDeletion runs Algorithm 6 over g: Monte Carlo Shapley
// estimation that simultaneously fills the YN-NN arrays, from which
// Merge(p) later recovers post-deletion values with zero additional
// utility evaluations.
func PreprocessDeletion(g Game, tau int, seed uint64) *DeletionArrays {
	return core.PreprocessDeletion(g, tau, rng.New(seed))
}

// PreprocessMultiDeletion fills the YNN-NNN arrays for deleting exactly d
// of the candidate players at once (Lemma 4).
func PreprocessMultiDeletion(g Game, d int, candidates []int, tau int, seed uint64) (*MultiDeletionArrays, error) {
	return core.PreprocessMultiDeletion(g, d, candidates, tau, rng.New(seed))
}

// EngineStats describes a permutation-engine pass: permutations issued
// versus budgeted, adaptive early-stop status and certified bound, worker
// count, and array-fill throughput.
type EngineStats = core.EngineStats

// UpdateRecord is one journaled session mutation: the operation, its
// inputs, the algorithm that ran (and the planner's trace when AlgoAuto
// chose it), and what the update cost. Session.History returns these.
type UpdateRecord = journal.Update

// JournalState is the serialisable form of a session's journal, embedded
// in snapshot format 2.
type JournalState = journal.State

// PreprocessDeletionParallel is PreprocessDeletion with the YN-NN array
// fill striped over the given number of accumulator workers (≤0 selects
// GOMAXPROCS). One producer samples permutations and computes prefix
// utilities; each worker owns a contiguous block of the arrays' player
// rows, so the result is bit-identical to the serial fill for the same
// seed at every worker count.
func PreprocessDeletionParallel(g Game, tau, workers int, seed uint64) *DeletionArrays {
	e := core.NewEngine(core.WithWorkers(workers))
	return e.PreprocessDeletion(g, tau, rng.New(seed))
}

// PreprocessMultiDeletionParallel is PreprocessMultiDeletion with the
// YNN-NNN fill striped over workers accumulators; bit-identical to the
// serial fill for the same seed.
func PreprocessMultiDeletionParallel(g Game, d int, candidates []int, tau, workers int, seed uint64) (*MultiDeletionArrays, error) {
	e := core.NewEngine(core.WithWorkers(workers))
	return e.PreprocessMultiDeletion(g, d, candidates, tau, rng.New(seed))
}

// MonteCarloShapleyAdaptive is Monte Carlo estimation with adaptive early
// termination: sampling stops as soon as an empirical-Bernstein bound
// certifies every player's estimate within eps at confidence 1−delta, or
// when the tau budget is exhausted. The returned stats report the τ
// actually spent.
func MonteCarloShapleyAdaptive(g Game, tau int, eps, delta float64, seed uint64) ([]float64, EngineStats) {
	e := core.NewEngine(core.WithTargetError(eps, delta))
	sv := e.MonteCarlo(g, tau, rng.New(seed))
	return sv, e.Stats()
}

// DeltaAddShapley runs Algorithm 5 over a general game: gPlus is the
// (n+1)-player game whose last player is new, oldSV the n precomputed
// values. It returns n+1 updated values.
func DeltaAddShapley(gPlus Game, oldSV []float64, tau int, seed uint64) ([]float64, error) {
	return core.NewEngine().BatchDeltaAdd(gPlus, oldSV, 1, tau, rng.New(seed))
}

// DeltaDeleteShapley runs Algorithm 8 over a general game: player p leaves
// g. The result keeps the original indexing with 0 at p.
func DeltaDeleteShapley(g Game, oldSV []float64, p, tau int, seed uint64) ([]float64, error) {
	return core.NewEngine().BatchDeltaDelete(g, oldSV, []int{p}, tau, rng.New(seed))
}

// RestrictGame returns the sub-game of g without the given players,
// renumbered to 0..n−len(removed)−1 preserving order.
func RestrictGame(g Game, removed ...int) Game {
	return game.NewRestrict(g, removed...)
}

// LeaveOneOut returns each player's leave-one-out score U(N) − U(N∖{i}) —
// the cheap baseline the paper's introduction contrasts with Shapley value.
func LeaveOneOut(g Game) []float64 { return core.LeaveOneOut(g) }

// StratifiedMonteCarloShapley approximates Shapley values by stratified
// coalition sampling (Maleki et al.) with the given per-stratum sample
// count.
func StratifiedMonteCarloShapley(g Game, samplesPerStratum int, seed uint64) []float64 {
	return core.StratifiedMonteCarlo(g, samplesPerStratum, rng.New(seed))
}

// MonteCarloShapleyAntithetic samples τ antithetic permutation PAIRS (each
// permutation scanned with its reverse) — a classical variance-reduction
// trick that typically beats plain sampling at equal evaluation budgets on
// learning-curve-shaped utilities.
func MonteCarloShapleyAntithetic(g Game, tauPairs int, seed uint64) []float64 {
	return core.MonteCarloAntithetic(g, tauPairs, rng.New(seed))
}

// ComplementaryMonteCarloShapley approximates Shapley values from
// complementary contributions CC(S) = U(S) − U(N∖S) (Zhang et al., SIGMOD
// 2023, the stratification highlighted in the paper's related work). One
// evaluation pair informs every member of S, which often beats plain
// permutation sampling at equal τ on games with strong complementarities.
func ComplementaryMonteCarloShapley(g Game, tau int, seed uint64) []float64 {
	return core.ComplementaryMonteCarlo(g, tau, rng.New(seed))
}

// KNNShapley returns the EXACT Shapley values of every training point under
// the soft k-NN utility (fraction of correct labels among the k nearest
// neighbours, averaged over the test set) in O(n log n) per test point —
// the closed form of Jia et al. (VLDB 2019) for lazy classifiers.
func KNNShapley(train, test *Dataset, k int) ([]float64, error) {
	return core.KNNShapley(train, test, k)
}

// SoftKNNGame is the cooperative game KNNShapley values exactly; use it to
// cross-check any estimator against a non-trivial exact answer at any n.
func SoftKNNGame(train, test *Dataset, k int) Game {
	return core.NewSoftKNNUtility(train, test, k)
}

// Semivalue selects a probabilistic weighting over coalition sizes — the
// family of attribution rules (Shapley, Banzhaf, Beta(α,β), Absolute
// Shapley) the engine's permutation passes can price simultaneously. Pass
// them to WithSemivalues and read the results with Session.ValuesFor; the
// game-level estimators below accept them directly.
type Semivalue = semivalue.Weighting

// Shapley is the Shapley weighting — the session's native head and the
// paper's compensation rule (every position weighted equally).
func Shapley() Semivalue { return semivalue.Shapley() }

// Banzhaf is the Banzhaf weighting: every coalition equally likely, the
// classical alternative that forgoes the balance (efficiency) axiom.
func Banzhaf() Semivalue { return semivalue.Banzhaf() }

// Beta is the Beta(α,β) semivalue family (Kwon & Zou's Beta Shapley):
// coalition sizes weighted by a Beta prior. Beta(1,1) is exactly Shapley;
// larger β emphasises small coalitions, larger α large ones.
func Beta(alpha, beta float64) Semivalue { return semivalue.Beta(alpha, beta) }

// AbsoluteShapley is Absolute Shapley (arXiv 2003.10076): Shapley's
// position weights over |marginal| — credits magnitude of influence,
// ignoring sign. It is not linear in the utility, so the YN-NN deletion
// arrays cannot re-price it.
func AbsoluteShapley() Semivalue { return semivalue.AbsoluteShapley() }

// ParseSemivalue resolves a semivalue's wire name ("shapley", "banzhaf",
// "beta(4,1)", "abs-shapley") — the inverse of Semivalue.String, used by
// the CLI's -semivalue flag and the snapshot config.
func ParseSemivalue(name string) (Semivalue, error) { return semivalue.Parse(name) }

// ExactSemivalue returns exact values under any semivalue weighting by
// complete enumeration (≤ 24 players). ExactShapley and ExactBanzhaf are
// this with the corresponding weighting.
func ExactSemivalue(g Game, sv Semivalue) []float64 { return core.ExactSemivalue(g, sv) }

// MonteCarloSemivalues prices every given weighting with ONE permutation
// pass of tau walks: each head folds the same sampled marginals with its
// own position weights, so the incremental cost per extra head is
// bookkeeping, not utility evaluations. The Shapley head (if present) is
// bit-identical to MonteCarloShapley at the same seed.
func MonteCarloSemivalues(g Game, svs []Semivalue, tau int, seed uint64) [][]float64 {
	return core.MonteCarloSemivalues(g, svs, tau, rng.NewStream(seed, 0))
}

// ExactBanzhaf returns exact Banzhaf values by complete enumeration
// (≤ 24 players) — the other classical semivalue, offered for comparison;
// it forgoes the balance axiom, so Shapley remains the compensation rule.
func ExactBanzhaf(g Game) []float64 { return core.ExactBanzhaf(g) }

// MonteCarloBanzhaf approximates Banzhaf values from tau sampled
// permutations — one multi-head pass with only the Banzhaf head, so the
// same walks could price Shapley for free. Sampling draws from
// rng.NewStream(seed, 0), the same (seed, version)-keyed stream discipline
// every session estimator uses, so results are reproducible under journal
// replay.
func MonteCarloBanzhaf(g Game, tau int, seed uint64) []float64 {
	return core.MonteCarloBanzhaf(g, tau, rng.NewStream(seed, 0))
}

// ShapleyShubik returns the exact power indices of a weighted voting game
// with integer weights in pseudo-polynomial time (no 2^n enumeration).
func ShapleyShubik(weights []int, quota int) ([]float64, error) {
	return game.ShapleyShubik(weights, quota)
}

// Tracker is an online Monte Carlo estimator with per-player convergence
// diagnostics — sample until a target precision instead of fixing τ.
type Tracker = core.Tracker

// NewShapleyTracker creates a Tracker over g.
func NewShapleyTracker(g Game, seed uint64) *Tracker {
	return core.NewTracker(g, rng.New(seed))
}

// ReadPivotState deserialises a pivot state written by (*PivotState).Encode,
// restoring the Pivot-s/Pivot-d capability across process restarts.
func ReadPivotState(r io.Reader) (*PivotState, error) { return core.ReadPivotState(r) }

// ReadDeletionArrays deserialises YN-NN arrays written by
// (*DeletionArrays).Encode.
func ReadDeletionArrays(r io.Reader) (*DeletionArrays, error) {
	return core.ReadDeletionStore(r)
}

// ReadMultiDeletionArrays deserialises YNN-NNN arrays written by
// (*MultiDeletionArrays).Encode.
func ReadMultiDeletionArrays(r io.Reader) (*MultiDeletionArrays, error) {
	return core.ReadMultiDeletionStore(r)
}

// MSE returns the mean squared error between two value vectors — the
// paper's effectiveness metric.
func MSE(estimate, truth []float64) float64 { return stat.MSE(estimate, truth) }

// RankCorrelation returns the Spearman rank correlation between two value
// vectors. Compensation ordering and data selection depend only on ranks,
// so this complements MSE as a valuation-quality metric.
func RankCorrelation(estimate, truth []float64) float64 {
	return stat.Spearman(estimate, truth)
}

// PivotSampleSize returns Theorem 1's permutation count for an
// (ϵ, δ)-approximation of the pivot algorithms' RSV, given marginal
// contributions ranging over [−r, r].
func PivotSampleSize(r, eps, delta float64) int { return stat.PivotSamples(r, eps, delta) }

// DeltaAddSampleSize returns Theorem 2's permutation count for an
// (ϵ, δ)-approximation of the delta-based addition estimate, given
// differential marginal contributions bounded by d in absolute value.
func DeltaAddSampleSize(n int, d, eps, delta float64) int {
	return stat.DeltaAddSamples(n, d, eps, delta)
}

// DeltaDeleteSampleSize returns Theorem 4's permutation count for the
// delta-based deletion estimate.
func DeltaDeleteSampleSize(n int, d, eps, delta float64) int {
	return stat.DeltaDeleteSamples(n, d, eps, delta)
}
