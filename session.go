package dynshap

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dynshap/internal/coalesce"
	"dynshap/internal/core"
	"dynshap/internal/dataset"
	"dynshap/internal/exact"
	"dynshap/internal/game"
	"dynshap/internal/journal"
	"dynshap/internal/ml"
	"dynshap/internal/plan"
	"dynshap/internal/rng"
	"dynshap/internal/semivalue"
	"dynshap/internal/utility"
)

// Session is the broker-side valuation state for one model task: it owns
// the training points being valued, the held-out test set defining the
// utility, the current Shapley estimates, and whatever precomputed
// structures (pivot LSV, stored permutations, YN-NN arrays) the selected
// options maintain to make dynamic updates cheap.
//
// A Session is a versioned store. Every mutation (Init, Add, Delete,
// Refresh) builds the next immutable state off-lock and publishes it with
// one atomic pointer swap, so reads — Values, Data, Rank, TopK, Snapshot,
// EngineStats, and the rest — never block behind a running update: they
// observe the last published version, however long the in-flight model
// trainings take. Updates serialise among themselves.
//
// Each successful mutation appends an Update record to the session's
// journal (see History) carrying the operation's inputs, the algorithm
// that ran, its cost, and — for AlgoAuto — the planner's decision trace.
// Because every operation draws its randomness from a stream keyed by
// (seed, version), ReplayTo can reproduce any recorded version bit for
// bit from the journal alone.
type Session struct {
	// updateMu serialises writers; readers never take it.
	updateMu sync.Mutex
	// state is the current published version. Readers Load it; writers
	// Store the successor after building it off the readers' path.
	state atomic.Pointer[sessionState]

	test    *dataset.Dataset
	trainer ml.Trainer
	cfg     config
	// engine is the writers' permutation engine; guarded by updateMu.
	engine *core.Engine
	// journal records every successful mutation; safe for concurrent use.
	journal *journal.Journal

	// coalMu guards lazy construction of the write-coalescing pipeline;
	// see async.go. coal stays nil until the first Submit* call.
	coalMu sync.Mutex
	coal   *coalesce.Coalescer
}

// sessionState is one immutable version of the session's valuation state.
// A published state is never mutated: updates derive a successor, replace
// whatever fields change (fresh slices, fresh utilities), and swap it in.
type sessionState struct {
	version int

	train *dataset.Dataset
	util  *utility.ModelUtility
	cache *game.Cached

	sv []float64
	// heads holds the extra semivalue heads' current estimates, one slice
	// per configured weighting (see WithSemivalues), index-aligned with sv.
	// nil when no heads are configured or before Init. Like sv, a published
	// heads matrix is never mutated — updates install fresh slices.
	heads [][]float64
	pivot *core.PivotState
	del   *core.DeletionStore
	multi *core.MultiDeletionStore
	// exact is the closed-form k-NN Shapley estimator, maintained through
	// every update when the utility supports it (SoftKNNClassifier with
	// the distance kernel). Like the other artifacts it rides the
	// immutable-state discipline: mutating updates clone it first, so a
	// failed update discards the mutated clone with the discarded state.
	// It is a derived cache — never serialised into snapshots; Resume and
	// ReplayTo rebuild it deterministically from the training set.
	exact *exact.Estimator

	initialized bool
	// ranks lazily caches this version's sorted rank orders (Shapley and
	// per-head), built once per published state so Rank/TopK/TopKFor stop
	// re-sorting on every call. Always a FRESH store: next() installs a new
	// one, so a successor never inherits its predecessor's orders.
	ranks *rankStore
	// storesFresh is true while del/multi match the current training set
	// (they are built for a fixed player set and go stale after updates).
	storesFresh bool
	// pastFits accumulates training counts of utilities replaced by updates,
	// so ModelTrainings is cumulative over the session's lifetime.
	pastFits int64
	// pastPrefixAdds does the same for incremental prefix evaluations.
	pastPrefixAdds int64
	// engineStats is the engine's report for the most recent engine-driven
	// pass, captured at publish time so readers need not touch the engine.
	engineStats core.EngineStats
}

// next derives the successor state: same artifacts, next version. The
// update then replaces whatever it changes. The rank cache is NOT
// inherited — the successor gets an empty store, rebuilt lazily from its
// own published values.
func (st *sessionState) next() *sessionState {
	c := *st
	c.version++
	c.ranks = newRankStore()
	return &c
}

// totalFits is the session-lifetime training count as of this state.
func (st *sessionState) totalFits() int64 { return st.pastFits + st.util.Fits() }

// totalPrefixAdds is the lifetime incremental-prefix count.
func (st *sessionState) totalPrefixAdds() int64 { return st.pastPrefixAdds + st.util.PrefixAdds() }

type config struct {
	tau            int
	updateTau      int
	seed           uint64
	keepPerms      bool
	trackDeletions bool
	multiDelete    int
	candidates     []int
	truncationTol  float64
	knnK           int
	knnPlus        core.KNNPlusConfig
	cacheEnabled   bool
	noKernel       bool
	workers        int
	targetEps      float64
	targetDelta    float64
	storeKind      core.BackendKind
	spillDir       string
	truncation     int
	// semivalues are the extra heads every sampled pass prices alongside
	// the Shapley estimate (Shapley itself is the native output and is
	// normalised out of this list).
	semivalues []semivalue.Weighting
	// coalesceBatch / coalesceDelay / coalesceDepth bound the async write
	// pipeline's admission windows (see WithCoalescing; zero values select
	// the defaults in async.go). Runtime-only knobs: they never change the
	// values an executed sequence produces, so snapshots do not carry them.
	coalesceBatch int
	coalesceDelay time.Duration
	coalesceDepth int
}

// headCount is the number of extra semivalue heads the session maintains.
func (c config) headCount() int { return len(c.semivalues) }

// headsLinear reports whether every configured head is a linear semivalue
// (no |·| transform) — the condition for recovering heads from the YN-NN
// deletion arrays.
func (c config) headsLinear() bool {
	for _, w := range c.semivalues {
		if w.Abs() {
			return false
		}
	}
	return true
}

// storeConfig resolves the configured deletion-store backend.
func (c config) storeConfig() core.StoreConfig {
	return core.StoreConfig{Kind: c.storeKind, SpillDir: c.spillDir}
}

// Option configures a Session.
type Option func(*config)

// WithSamples sets the permutation sample size τ for initialisation (and,
// unless WithUpdateSamples overrides it, for updates). Default 20·n, the
// paper's experimental setting.
func WithSamples(tau int) Option { return func(c *config) { c.tau = tau } }

// WithUpdateSamples sets a separate sample size for dynamic updates —
// typically smaller than the offline initialisation τ (the paper's
// τ_LSV ≠ τ_RSV regime, Table V).
func WithUpdateSamples(tau int) Option { return func(c *config) { c.updateTau = tau } }

// WithSeed seeds every sampler in the session. Same seed, same results.
func WithSeed(seed uint64) Option { return func(c *config) { c.seed = seed } }

// WithKeepPermutations stores the sampled permutations, enabling the
// Pivot-s addition algorithm at an O(τ·n) memory cost.
func WithKeepPermutations() Option { return func(c *config) { c.keepPerms = true } }

// WithTrackDeletions maintains the YN-NN arrays during initialisation,
// enabling exact single-point deletion (AlgoYNNN) at an O(n³) memory cost.
func WithTrackDeletions() Option { return func(c *config) { c.trackDeletions = true } }

// WithMultiDelete additionally maintains YNN-NNN arrays for deleting
// exactly d of the candidate points at once.
func WithMultiDelete(d int, candidates []int) Option {
	return func(c *config) {
		c.multiDelete = d
		c.candidates = append([]int(nil), candidates...)
	}
}

// WithTruncationTolerance sets the TMC tolerance (default 1e-12, the
// paper's setting).
func WithTruncationTolerance(tol float64) Option {
	return func(c *config) { c.truncationTol = tol }
}

// WithHeuristicK sets k for the KNN/KNN+ heuristics (default 5).
func WithHeuristicK(k int) Option { return func(c *config) { c.knnK = k } }

// WithKNNPlusConfig overrides the KNN+ parameters.
func WithKNNPlusConfig(cfg KNNPlusConfig) Option {
	return func(c *config) { c.knnPlus = cfg }
}

// WithoutCache disables coalition-utility memoisation. Only useful for
// benchmarking the cost of cache misses; the dynamic algorithms' reuse
// claims assume the cache.
func WithoutCache() Option { return func(c *config) { c.cacheEnabled = false } }

// WithoutDistanceKernel disables the KNN utility's precomputed
// test-to-train distance matrix, recomputing distances on every evaluation
// instead of holding the m×n float64 kernel in memory. Shapley values are
// bit-identical either way — this is purely a memory/speed trade-off (and
// the reference arm the kernel's equality tests compare against). Has no
// effect for non-KNN trainers, which never build a kernel.
func WithoutDistanceKernel() Option { return func(c *config) { c.noKernel = true } }

// WithWorkers sets the number of accumulator workers the session's
// permutation engine uses for stripe-parallel YN-NN / YNN-NNN fills
// (≤0 selects GOMAXPROCS). The same count parallelises the distance
// kernel's initial fill. Results are bit-identical at every worker
// count — this is purely a throughput knob.
func WithWorkers(k int) Option { return func(c *config) { c.workers = k } }

// WithTargetError enables adaptive early termination for the sampled
// passes (initialisation fills and the MC/TMC/Delta updates): each pass
// stops as soon as an empirical-Bernstein bound certifies every player's
// estimate within eps at confidence 1−delta, instead of always spending
// the full τ budget. EngineStats reports the τ actually used.
func WithTargetError(eps, delta float64) Option {
	return func(c *config) { c.targetEps, c.targetDelta = eps, delta }
}

// WithStoreBackend selects the storage backend for the YN-NN / YNN-NNN
// deletion arrays (default StoreDense64, the exact float64 layout). The
// tiled float32 backend (StoreTiled32) halves the arrays' bytes in
// exchange for a bounded rounding drift — see DESIGN.md §15 for the
// tolerance contract; merged values keep rank-correlation ≥ 0.99 with the
// dense path on the paper's scenarios.
func WithStoreBackend(k StoreBackend) Option {
	return func(c *config) { c.storeKind = core.BackendKind(k) }
}

// WithStoreSpill puts the deletion arrays in mmap-backed scratch files
// under dir (the process temp dir when dir is empty): the OS pages cold
// tiles out under memory pressure, so stores larger than RAM work. Implies
// the tiled float32 layout and its tolerance contract. Scratch files are
// removed when the store is closed or garbage-collected.
func WithStoreSpill(dir string) Option {
	return func(c *config) {
		c.storeKind = core.BackendSpill32
		c.spillDir = dir
	}
}

// WithTruncation enables stratified-truncated permutation sampling for
// initialisation and recomputation passes (arXiv 2311.05346): every
// sampled walk stops after its first t positions, drawn in rotation
// blocks so each player is observed inside the window once per block.
// Cuts utility evaluations per walk from O(n) to O(t) and the YN-NN fill
// work from O(n²) to O(t·n), at the cost of the documented tail bias
// (strata past position t contribute zero — see ALGORITHMS.md).
// Incompatible with WithKeepPermutations; t ≤ 0 disables, t ≥ n is a
// no-op.
func WithTruncation(t int) Option {
	return func(c *config) { c.truncation = t }
}

// WithSemivalues makes every sampled pass of the session price the given
// semivalue weightings alongside the Shapley estimate, for the cost of the
// bookkeeping alone: the heads fold the same permutation walks the Shapley
// accumulator observes, consume no randomness, and add zero utility
// evaluations. Read them with ValuesFor / RankFor / TopKFor; Values keeps
// returning the Shapley estimates, bit-identical to a session without
// heads.
//
// A Shapley weighting in the list is ignored (it is the session's native
// output and always readable), and duplicate weightings collapse to one
// head. Configured heads restrict the update paths AlgoAuto considers —
// the exact k-NN fast path, pivot replays and the multi-point YNN-NNN
// merge are Shapley-specific, so the planner routes every update through a
// sampled pass (or, for single deletions with linear-only heads, the YN-NN
// merge); requesting such an algorithm explicitly returns an error.
func WithSemivalues(ws ...Semivalue) Option {
	return func(c *config) {
		var out []semivalue.Weighting
		for _, w := range ws {
			if w.IsShapley() {
				continue
			}
			dup := false
			for _, o := range out {
				if o.Key() == w.Key() {
					dup = true
					break
				}
			}
			if !dup {
				out = append(out, w)
			}
		}
		c.semivalues = out
	}
}

// NewSession creates a valuation session for the given training points,
// scored against test with models produced by trainer.
func NewSession(train, test *Dataset, trainer Trainer, opts ...Option) *Session {
	cfg := defaultConfig(train.Len())
	for _, o := range opts {
		o(&cfg)
	}
	return newSessionFromConfig(train, test, trainer, cfg)
}

// defaultConfig is the option-free configuration for an n-point session.
func defaultConfig(n int) config {
	return config{
		tau:           20 * n,
		seed:          1,
		truncationTol: 1e-12,
		knnK:          5,
		cacheEnabled:  true,
	}
}

// newSessionFromConfig builds a session from a fully resolved config —
// the constructor NewSession, Resume, and ReplayTo share, so a replayed
// or resumed session is configured identically to its origin.
func newSessionFromConfig(train, test *dataset.Dataset, trainer ml.Trainer, cfg config) *Session {
	if cfg.updateTau == 0 {
		cfg.updateTau = cfg.tau
	}
	engineOpts := []core.EngineOption{core.WithWorkers(cfg.workers)}
	if cfg.targetEps > 0 {
		engineOpts = append(engineOpts, core.WithTargetError(cfg.targetEps, cfg.targetDelta))
	}
	if cfg.truncation > 0 {
		engineOpts = append(engineOpts, core.WithTruncation(cfg.truncation))
	}
	if cfg.headCount() > 0 {
		engineOpts = append(engineOpts, core.WithSemivalues(cfg.semivalues...))
	}
	s := &Session{
		test:    test.Clone(),
		trainer: trainer,
		cfg:     cfg,
		engine:  core.NewEngine(engineOpts...),
	}
	st := &sessionState{train: train.Clone(), ranks: newRankStore()}
	rebuildUtility(s, st)
	st.exact = s.buildExact(st)
	s.state.Store(st)
	s.journal = journal.New(st.train.Points, st.train.Classes, nil)
	return s
}

// opSource returns the RNG for the operation producing the given version.
// Streams are keyed by (seed, version), so replaying an operation at the
// same version consumes identical randomness regardless of what happened
// in between — including failed attempts, which consume nothing durable.
func (s *Session) opSource(version int) *rng.Source {
	return rng.NewStream(s.cfg.seed, uint64(version))
}

// rebuildUtility reconstructs the utility (and cache) for the state's
// training set — construction-time only: updates derive the successor
// utility with Append/Remove so the distance kernel is extended or masked
// rather than recomputed.
func rebuildUtility(s *Session, st *sessionState) {
	if st.util != nil {
		st.pastFits += st.util.Fits()
		st.pastPrefixAdds += st.util.PrefixAdds()
	}
	st.util = utility.NewModelUtility(st.train, s.test, s.trainer, s.utilOptions()...)
	st.cache = game.NewCached(st.util)
}

// buildExact constructs the closed-form exact k-NN estimator when the
// state's utility supports it: a SoftKNNClassifier trainer scored through
// the precomputed distance kernel. Construction sorts each test column
// once (O(m·n log n)); thereafter updates maintain the orders
// incrementally. Returns nil for every other trainer, for
// WithoutDistanceKernel sessions, and for empty training sets' kernels —
// the session then behaves exactly as before this estimator existed.
func (s *Session) buildExact(st *sessionState) *exact.Estimator {
	kernel, k, ok := st.util.ExactKNNState()
	if !ok {
		return nil
	}
	trainLabels := make([]int, st.train.Len())
	for i, p := range st.train.Points {
		trainLabels[i] = p.Y
	}
	testLabels := make([]int, s.test.Len())
	for j, p := range s.test.Points {
		testLabels[j] = p.Y
	}
	return exact.New(kernel, trainLabels, testLabels, k, s.cfg.workers)
}

// utilOptions resolves the session configuration into utility options.
func (s *Session) utilOptions() []utility.Option {
	opts := []utility.Option{utility.WithWorkers(s.cfg.workers)}
	if s.cfg.noKernel {
		opts = append(opts, utility.WithoutKernel())
	}
	return opts
}

// deriveRemove replaces the state's utility with its N⁻ view after the
// training set shrank. The distance kernel survives as a masked view — no
// distance is recomputed — but the cache must be replaced, because player
// indices shift and every stored coalition key goes stale.
func (s *Session) deriveRemove(st *sessionState, indices []int) {
	// Capture the doomed points' physical column ids from the PRE-remove
	// kernel view — after the removal the logical indices have shifted, but
	// the physical ids are stable and are what the estimator's orders hold.
	var removedPhys []int32
	if st.exact != nil {
		if kernel, _, ok := st.util.ExactKNNState(); ok {
			removedPhys = make([]int32, len(indices))
			for i, idx := range indices {
				removedPhys[i] = kernel.Phys(idx)
			}
		}
	}
	st.pastFits += st.util.Fits()
	st.pastPrefixAdds += st.util.PrefixAdds()
	st.util = st.util.Remove(indices...)
	st.cache = game.NewCached(st.util)
	if st.exact != nil {
		kernel, _, ok := st.util.ExactKNNState()
		if ok && removedPhys != nil {
			st.exact.Delete(removedPhys, kernel)
		} else {
			st.exact = nil
		}
	}
}

// gameOf returns the Game view estimators should use over a state.
func (s *Session) gameOf(st *sessionState) game.Game {
	if s.cfg.cacheEnabled {
		return st.cache
	}
	return st.util
}

// gameFor returns a Game view over an updated utility, sharing the
// state's cache when enabled (coalitions of the original points keep
// identical cache keys after an append, which is what makes pivot reuse
// effective).
func (s *Session) gameFor(st *sessionState, u *utility.ModelUtility) game.Game {
	if s.cfg.cacheEnabled {
		return game.NewCachedShared(u, st.cache)
	}
	return u
}

// N returns the number of training points currently under valuation.
func (s *Session) N() int { return s.state.Load().train.Len() }

// Version returns the current state version: 0 at creation (or at the
// base of a resumed snapshot), incremented by every successful Init, Add,
// Delete and Refresh.
func (s *Session) Version() int { return s.state.Load().version }

// Data returns a copy of the training points currently under valuation,
// index-aligned with Values.
func (s *Session) Data() *Dataset { return s.state.Load().train.Clone() }

// Values returns a copy of the current Shapley estimates, or nil before
// Init.
func (s *Session) Values() []float64 {
	return append([]float64(nil), s.state.Load().sv...)
}

// ModelTrainings returns how many model trainings the session has performed
// over its lifetime — the dominant cost every dynamic algorithm tries to
// minimise. The count includes work done by an in-flight update.
func (s *Session) ModelTrainings() int64 { return s.state.Load().totalFits() }

// CacheStats returns the utility cache's hit/miss counts.
func (s *Session) CacheStats() (hits, misses int64) { return s.state.Load().cache.Stats() }

// PrefixAdds returns how many incremental prefix evaluations the session
// has served over its lifetime (see the Prefixer capability in
// internal/game). For models that support exact incremental maintenance —
// currently k-NN — permutation walks use these in place of model
// trainings, so ModelTrainings stays near zero while PrefixAdds grows.
func (s *Session) PrefixAdds() int64 { return s.state.Load().totalPrefixAdds() }

// EngineStats returns the permutation engine's statistics for the most
// recent engine-driven pass published by an update (Init, or an
// MC/TMC/Delta update): permutations issued versus budgeted, whether the
// adaptive bound stopped the pass early, the worker count, and the
// array-fill throughput.
func (s *Session) EngineStats() core.EngineStats { return s.state.Load().engineStats }

// Semivalues returns the extra semivalue weightings the session maintains
// heads for (WithSemivalues), in head order. The Shapley head is implicit
// and always readable through Values / ValuesFor(Shapley()).
func (s *Session) Semivalues() []Semivalue {
	return append([]Semivalue(nil), s.cfg.semivalues...)
}

// History returns the session's journal: one Update record per successful
// mutation, versions ascending. See ReplayTo for reproducing any of them.
func (s *Session) History() []UpdateRecord { return s.journal.History() }

// At returns the journal record of the update that produced the given
// version.
func (s *Session) At(version int) (UpdateRecord, error) {
	u, ok := s.journal.At(version)
	if !ok {
		return UpdateRecord{}, fmt.Errorf("dynshap: no journaled update produced version %d", version)
	}
	return u, nil
}

// ErrNotInitialized is returned by updates before Init has run.
var ErrNotInitialized = errors.New("dynshap: session not initialized; call Init first")

// ErrStaleStores is returned when AlgoYNNN is explicitly requested after
// the arrays have gone stale (any prior update invalidates them); call
// Refresh — or use AlgoAuto, which routes around stale artifacts instead
// of failing.
var ErrStaleStores = errors.New("dynshap: deletion arrays are stale after a previous update; call Refresh")

// ErrExactUnavailable is returned when AlgoExactKNN is explicitly
// requested but the session maintains no exact estimator: it requires a
// SoftKNNClassifier trainer and the distance kernel (i.e. not
// WithoutDistanceKernel). AlgoAuto never hits this — the planner only
// routes onto the exact path when the estimator exists.
var ErrExactUnavailable = errors.New("dynshap: exact k-NN estimator unavailable; it requires SoftKNNClassifier and the distance kernel")

// checkHeads rejects explicitly requested algorithms that cannot maintain
// the configured semivalue heads. The sampled passes (MC, TMC, Delta, and
// the batched delta addition) fold every head for free; the YN-NN merge
// re-prices linear heads from the same arrays (single deletions only);
// everything else — exact k-NN, pivot replays, the YNN-NNN multi-merge,
// the batched DELETION walks (whose shared-chain accounting is
// Shapley-specific), Base, and the KNN heuristics — cannot, and silently
// letting the heads go stale would corrupt ValuesFor. AlgoAuto never hits
// this: the planner only routes onto head-capable paths when heads are
// configured.
func (s *Session) checkHeads(algo Algorithm, deleteCount int) error {
	if s.cfg.headCount() == 0 {
		return nil
	}
	switch algo {
	case AlgoMonteCarlo, AlgoTruncatedMC, AlgoDelta:
		return nil
	case AlgoDeltaBatch:
		if deleteCount > 0 {
			return fmt.Errorf("dynshap: the batched delta deletion is Shapley-only and cannot maintain the configured semivalue heads %v; delete points one at a time with AlgoDelta", semivalue.Keys(s.cfg.semivalues))
		}
		return nil
	case AlgoYNNN:
		if deleteCount > 1 {
			return fmt.Errorf("dynshap: the YNN-NNN multi-point merge is Shapley-only and cannot re-price the configured semivalue heads %v; delete points one at a time or use AlgoDelta", semivalue.Keys(s.cfg.semivalues))
		}
		if !s.cfg.headsLinear() {
			return fmt.Errorf("dynshap: AlgoYNNN cannot re-price an absolute-transform head (|·| does not distribute over the YN-NN sums); use AlgoDelta or a recompute")
		}
		return nil
	}
	return fmt.Errorf("dynshap: algorithm %v is Shapley-specific and cannot maintain the configured semivalue heads %v; use AlgoAuto, MC, TMC, Delta or Delta-batch", algo, semivalue.Keys(s.cfg.semivalues))
}

// publish installs the successor state and journals the update that
// produced it.
func (s *Session) publish(st *sessionState, u journal.Update) {
	st.engineStats = s.engine.Stats()
	st.engineStats.KernelBytes = st.util.KernelMemoryBytes()
	s.journal.Append(u)
	s.state.Store(st)
}

// opMetrics accumulates an update's audit numbers across its sub-passes.
type opMetrics struct {
	perms int
}

// Init computes the initial Shapley values with one Monte Carlo pass of τ
// permutations, simultaneously building every structure the options
// request (Algorithm 2's LSV, Algorithm 6's YN-NN arrays, Lemma 4's
// YNN-NNN arrays).
func (s *Session) Init() error {
	s.updateMu.Lock()
	defer s.updateMu.Unlock()
	return s.initLocked("init")
}

// Refresh recomputes values and rebuilds the dynamic structures for the
// current training set — a full (expensive) pass, used after updates have
// degraded the maintained state or invalidated the deletion arrays.
func (s *Session) Refresh() error {
	s.updateMu.Lock()
	defer s.updateMu.Unlock()
	return s.initLocked("refresh")
}

func (s *Session) initLocked(op string) error {
	cur := s.state.Load()
	st := cur.next()
	r := s.opSource(st.version)
	startFits, startPrefix := cur.totalFits(), cur.totalPrefixAdds()
	begin := time.Now()
	// Exact fast path: when the session maintains the closed-form k-NN
	// estimator and no option demands sampled artifacts (stored
	// permutations, YN-NN / YNN-NNN arrays — all products of a permutation
	// pass), initialisation is just the estimator's deterministic
	// reduction: exact values, zero model trainings, zero permutations.
	needsSampledArtifacts := s.cfg.keepPerms || s.cfg.trackDeletions || s.cfg.multiDelete > 0
	var initTrace []string
	if st.exact != nil && !needsSampledArtifacts && s.cfg.headCount() == 0 {
		st.sv = st.exact.Values()
		st.pivot, st.del, st.multi = nil, nil, nil
		st.initialized = true
		st.storesFresh = false
		s.publish(st, journal.Update{
			Version:    st.version,
			Op:         op,
			Algo:       AlgoExactKNN.String(),
			Trainings:  st.totalFits() - startFits,
			PrefixAdds: st.totalPrefixAdds() - startPrefix,
			Seconds:    time.Since(begin).Seconds(),
			Decision: []string{
				fmt.Sprintf("exact k-NN estimator available (soft utility + distance kernel): closed-form values for all %d points; sampled pass of τ=%d skipped", st.train.Len(), s.cfg.tau),
				fmt.Sprintf("chose %s (%s): closed-form sorted-neighbour recurrence (Jia et al.) with zero model trainings", AlgoExactKNN, core.ExactKNNCost(st.train.Len(), s.test.Len(), 0)),
			},
		})
		return nil
	}
	if st.exact != nil {
		if needsSampledArtifacts {
			initTrace = []string{fmt.Sprintf(
				"exact k-NN estimator present, but requested artifacts need a sampled pass (keepPerms=%v trackDeletions=%v multiDelete=%d); running τ=%d initialisation to build them",
				s.cfg.keepPerms, s.cfg.trackDeletions, s.cfg.multiDelete, s.cfg.tau)}
		} else {
			initTrace = []string{fmt.Sprintf(
				"exact k-NN estimator present, but it is Shapley-only and %d semivalue head(s) are configured; running τ=%d initialisation to fill every head",
				s.cfg.headCount(), s.cfg.tau)}
		}
	}
	if s.cfg.headCount() > 0 {
		initTrace = append(initTrace, fmt.Sprintf(
			"%d extra semivalue head(s) [%s] fold the same walks — zero additional evaluations, Shapley output unchanged",
			s.cfg.headCount(), strings.Join(semivalue.Keys(s.cfg.semivalues), " ")))
	}
	if s.cfg.storeKind != core.BackendDense64 && (s.cfg.trackDeletions || s.cfg.multiDelete > 0) {
		initTrace = append(initTrace, fmt.Sprintf(
			"deletion stores on the %s backend (float32 tiles; merge within the DESIGN.md §15 tolerance of the dense path)", s.cfg.storeKind))
	}
	if s.cfg.truncation > 0 {
		initTrace = append(initTrace, fmt.Sprintf(
			"stratified-truncated sampling: walks stop at t=%d of n=%d positions, rotation-block stratified (arXiv 2311.05346)",
			s.cfg.truncation, st.train.Len()))
	}
	res, err := s.engine.Initialize(s.gameOf(st), s.cfg.tau, core.InitOptions{
		KeepPerms:      s.cfg.keepPerms,
		TrackDeletions: s.cfg.trackDeletions,
		MultiDelete:    s.cfg.multiDelete,
		Candidates:     s.cfg.candidates,
		Store:          s.cfg.storeConfig(),
	}, r.Split())
	if err != nil {
		return fmt.Errorf("dynshap: init: %w", err)
	}
	st.pivot = res.Pivot
	st.del = res.Deletion
	st.multi = res.Multi
	st.sv = res.SV()
	st.heads = res.HeadValues
	st.initialized = true
	st.storesFresh = true
	s.publish(st, journal.Update{
		Version:      st.version,
		Op:           op,
		Algo:         AlgoMonteCarlo.String(),
		Trainings:    st.totalFits() - startFits,
		PrefixAdds:   st.totalPrefixAdds() - startPrefix,
		Permutations: s.engine.Stats().Issued,
		Seconds:      time.Since(begin).Seconds(),
		Decision:     initTrace,
	})
	return nil
}

// planUpdate resolves AlgoAuto against the state's artifacts and budget.
func (s *Session) planUpdate(st *sessionState, op plan.Op, count int, indices []int, coalesced bool) (Algorithm, []string) {
	dec := plan.Plan(
		plan.Request{Op: op, Count: count, Indices: indices, Coalesced: coalesced},
		plan.Artifacts{
			N:           st.train.Len(),
			ExactKNN:    st.exact != nil,
			TestPoints:  s.test.Len(),
			StoresFresh: st.storesFresh,
			Pivot:       st.pivot,
			Deletion:    st.del,
			Multi:       st.multi,
			Heads:       s.cfg.headCount(),
			HeadsLinear: s.cfg.headsLinear(),
		},
		plan.Budget{
			UpdateTau:   s.cfg.updateTau,
			TargetEps:   s.cfg.targetEps,
			TargetDelta: s.cfg.targetDelta,
			Truncation:  s.cfg.truncation,
		},
	)
	var algo Algorithm
	switch dec.Choice {
	case plan.ChoiceExact:
		algo = AlgoYNNN
	case plan.ChoicePivotSame:
		algo = AlgoPivotSame
	case plan.ChoiceDelta:
		algo = AlgoDelta
	case plan.ChoiceDeltaBatch:
		algo = AlgoDeltaBatch
	case plan.ChoicePivotBatch:
		algo = AlgoPivotSameBatch
	case plan.ChoiceDeltaDeleteBatch:
		algo = AlgoDeltaBatch
	case plan.ChoicePivotDeleteBatch:
		algo = AlgoPivotSameBatch
	case plan.ChoiceExactKNN:
		algo = AlgoExactKNN
	default:
		algo = AlgoMonteCarlo
	}
	return algo, dec.Trace
}

// Add appends the given points to the training set and returns the updated
// Shapley values (index-aligned with Data; new points at the end). The
// algorithm decides cost and accuracy:
//
//   - AlgoAuto: let the planner pick the cheapest valid path below.
//   - AlgoPivotSame / AlgoPivotDifferent / AlgoDelta: incremental, applied
//     per point in sequence.
//   - AlgoPivotSameBatch: one stored-permutation pass for the whole batch;
//     bit-identical to applying AlgoPivotSame per point in sequence, at a
//     fraction of the wall clock.
//   - AlgoDeltaBatch: one shared permutation pass valuing every pending
//     point against the pre-batch set. Note the estimator differs from
//     sequential AlgoDelta for k > 1: each point is valued against the
//     FIXED pre-batch base rather than a set growing with its predecessors
//     (identical at k = 1). Deterministic and worker-count invariant.
//   - AlgoExactKNN: EXACT values from the maintained closed-form k-NN
//     estimator (SoftKNNClassifier sessions only — ErrExactUnavailable
//     otherwise). Binary-inserts the new points into every test column's
//     sorted order and recomputes the affected rank suffixes: zero model
//     trainings, zero permutations, no estimation error, any batch size.
//   - AlgoKNN / AlgoKNNPlus: instant heuristics.
//   - AlgoMonteCarlo / AlgoTruncatedMC: recompute from scratch.
//   - AlgoBase: keep old values; new points get the average old value.
func (s *Session) Add(points []Point, algo Algorithm) ([]float64, error) {
	vals, _, err := s.addJournaled(points, algo, false)
	return vals, err
}

// addJournaled is Add plus the journal record the operation published —
// the coalescer's executor reads per-point attribution and the produced
// version off the record instead of racing other writers for the latest
// history entry. coalesced marks the record (and the planner trace) as a
// window assembled by the write pipeline rather than one caller's batch.
func (s *Session) addJournaled(points []Point, algo Algorithm, coalesced bool) ([]float64, journal.Update, error) {
	s.updateMu.Lock()
	defer s.updateMu.Unlock()
	cur := s.state.Load()
	if !cur.initialized {
		return nil, journal.Update{}, ErrNotInitialized
	}
	if len(points) == 0 {
		return append([]float64(nil), cur.sv...), journal.Update{}, nil
	}
	st := cur.next()
	// Clone before any append: the maintenance hooks mutate the estimator,
	// and the published predecessor must keep serving the original if this
	// update fails mid-way.
	if st.exact != nil {
		st.exact = st.exact.Clone()
	}
	r := s.opSource(st.version)
	startFits, startPrefix := cur.totalFits(), cur.totalPrefixAdds()
	requested := algo
	var trace []string
	if algo == AlgoAuto {
		algo, trace = s.planUpdate(st, plan.OpAdd, len(points), nil, coalesced)
	}
	if err := s.checkHeads(algo, 0); err != nil {
		return nil, journal.Update{}, err
	}
	var ops opMetrics
	begin := time.Now()
	var err error
	switch algo {
	case AlgoMonteCarlo, AlgoTruncatedMC:
		err = s.addRecompute(st, points, algo, r, &ops)
	case AlgoBase:
		st.sv = core.BaseAdd(st.sv, len(points))
		s.applyAppend(st, points)
	case AlgoPivotDifferent:
		err = s.addPivotDifferent(st, points, r, &ops)
	case AlgoPivotSame, AlgoPivotSameBatch:
		err = s.addPivotBatch(st, points, r, &ops)
		if algo == AlgoPivotSame {
			// Pivot-s journals its per-point accounting: one replay of the
			// stored permutations per added point.
			ops.perms *= len(points)
		}
	case AlgoDelta:
		err = s.addDelta(st, points, r, &ops)
	case AlgoDeltaBatch:
		err = s.addDeltaBatch(st, points, r, &ops)
	case AlgoExactKNN:
		if st.exact == nil {
			err = ErrExactUnavailable
		} else {
			// applyAppend's maintenance hook folds the points into the
			// estimator; the reduction then reads off the exact values.
			s.applyAppend(st, points)
			st.sv = st.exact.Values()
		}
	case AlgoKNN:
		st.sv, err = core.KNNAdd(st.sv, st.train, points, s.cfg.knnK)
		if err == nil {
			s.applyAppend(st, points)
		}
	case AlgoKNNPlus:
		st.sv, err = core.KNNPlusAdd(s.gameOf(st), st.train, st.sv, points, nil, s.knnPlusCfg(), r.Split())
		if err == nil {
			s.applyAppend(st, points)
		}
	default:
		err = fmt.Errorf("dynshap: algorithm %v does not support additions", algo)
	}
	if err != nil {
		return nil, journal.Update{}, err
	}
	st.storesFresh = false
	// Batched walks attribute a value to every appended point in one pass;
	// record the per-point attribution so journal readers can audit what
	// each point of the batch was individually worth. Exact adds always
	// know it — every appended point's value is exact the moment it lands.
	var batchVals []float64
	if algo == AlgoDeltaBatch || algo == AlgoPivotSameBatch || algo == AlgoExactKNN {
		batchVals = append([]float64(nil), st.sv[len(st.sv)-len(points):]...)
	}
	// Multi-head sessions additionally journal what each appended point was
	// worth under every extra head — the per-head attribution History and
	// the CLI display. Replay does not consume it (the folds are
	// deterministic from the walks).
	var headAttr map[string][]float64
	if s.cfg.headCount() > 0 && len(st.heads) == s.cfg.headCount() {
		headAttr = make(map[string][]float64, s.cfg.headCount())
		for h, w := range s.cfg.semivalues {
			vals := st.heads[h]
			headAttr[w.Key()] = append([]float64(nil), vals[len(vals)-len(points):]...)
		}
	}
	u := journal.Update{
		Version:      st.version,
		Op:           "add",
		Requested:    requestedName(requested, algo),
		Algo:         algo.String(),
		Points:       points,
		BatchValues:  batchVals,
		HeadValues:   headAttr,
		Coalesced:    coalesced,
		Trainings:    st.totalFits() - startFits,
		PrefixAdds:   st.totalPrefixAdds() - startPrefix,
		Permutations: ops.perms,
		Seconds:      time.Since(begin).Seconds(),
		Decision:     trace,
	}
	s.publish(st, u)
	return append([]float64(nil), st.sv...), u, nil
}

// requestedName records the caller's algorithm only when the planner
// translated it — otherwise the journal's Algo field already says it all.
func requestedName(requested, resolved Algorithm) string {
	if requested == resolved {
		return ""
	}
	return requested.String()
}

func (s *Session) knnPlusCfg() core.KNNPlusConfig {
	cfg := s.cfg.knnPlus
	if cfg.K == 0 {
		cfg.K = s.cfg.knnK
	}
	return cfg
}

// applyAppend extends the state's training set and utility without
// touching sv.
func (s *Session) applyAppend(st *sessionState, points []Point) {
	st.train = st.train.Append(points...)
	st.pastFits += st.util.Fits()
	st.pastPrefixAdds += st.util.PrefixAdds()
	st.util = st.util.Append(points...)
	// The cache survives: coalitions over the original points keep their
	// keys, and new coalitions simply miss. (Capacity growth across a
	// 64-player word boundary changes keys, costing misses, not errors.)
	if s.cfg.cacheEnabled {
		st.cache = game.NewCachedShared(st.util, st.cache)
	}
	s.maintainExactAppend(st, points)
}

// maintainExactAppend folds freshly appended points into the state's exact
// estimator (already cloned by the mutating operation): each test column
// binary-inserts the new points and recomputes only the affected rank
// suffix, keeping the maintained state bit-identical to a from-scratch
// rebuild. Called only after the append is certain to commit — error paths
// discard the whole successor state, estimator clone included.
func (s *Session) maintainExactAppend(st *sessionState, points []Point) {
	if st.exact == nil {
		return
	}
	kernel, _, ok := st.util.ExactKNNState()
	if !ok {
		st.exact = nil
		return
	}
	labels := make([]int, len(points))
	for i, p := range points {
		labels[i] = p.Y
	}
	st.exact.Add(kernel, st.train.Len()-len(points), labels)
}

func (s *Session) addRecompute(st *sessionState, points []Point, algo Algorithm, r *rng.Source, ops *opMetrics) error {
	s.applyAppend(st, points)
	if algo == AlgoTruncatedMC {
		st.sv = s.engine.TruncatedMonteCarlo(s.gameOf(st), s.cfg.updateTau, s.cfg.truncationTol, r.Split())
	} else {
		st.sv = s.engine.MonteCarlo(s.gameOf(st), s.cfg.updateTau, r.Split())
	}
	s.captureHeads(st)
	ops.perms += s.engine.Stats().Issued
	return nil
}

// captureHeads installs the engine's freshly folded head values into the
// successor state. A no-op for head-less sessions.
func (s *Session) captureHeads(st *sessionState) {
	if s.cfg.headCount() > 0 {
		st.heads = s.engine.HeadValues()
	}
}

// addPivotDifferent applies Pivot-d per point in sequence: each point
// samples fresh permutations of the game grown by its predecessors.
func (s *Session) addPivotDifferent(st *sessionState, points []Point, r *rng.Source, ops *opMetrics) error {
	if st.pivot == nil {
		return ErrNotInitialized
	}
	// Clone before mutating: the published predecessor shares this pivot,
	// and a half-applied failure must not corrupt it.
	st.pivot = st.pivot.Clone()
	for _, p := range points {
		uPlus := st.util.Append(p)
		sv, err := st.pivot.AddDifferent(s.gameFor(st, uPlus), s.cfg.updateTau, r.Split())
		if err != nil {
			return err
		}
		ops.perms += st.pivot.Tau
		st.sv = sv
		s.applyAppendBuilt(st, uPlus, p)
	}
	return nil
}

// applyAppendBuilt installs an already-built utility for the added points.
func (s *Session) applyAppendBuilt(st *sessionState, uPlus *utility.ModelUtility, points ...Point) {
	st.train = st.train.Append(points...)
	st.pastFits += st.util.Fits()
	st.pastPrefixAdds += st.util.PrefixAdds()
	st.util = uPlus
	if s.cfg.cacheEnabled {
		st.cache = game.NewCachedShared(st.util, st.cache)
	}
	s.maintainExactAppend(st, points)
}

// addPivotBatch is the Pivot-s addition for AlgoPivotSame and
// AlgoPivotSameBatch alike. It walks the retained permutations ONCE for the
// whole batch: one multi-point utility append (one blocked kernel fill, one
// test-set clone), one stored-permutation pass with per-point accumulators
// striped across workers. The per-point RNG sources are split from r in
// arrival order — one per point, the splits a per-point loop would consume
// — so the result is bit-identical to k successive single-point Pivot-s
// additions (core.BatchAddSameSeq is that reference).
func (s *Session) addPivotBatch(st *sessionState, points []Point, r *rng.Source, ops *opMetrics) error {
	if st.pivot == nil {
		return ErrNotInitialized
	}
	// Clone before mutating: the published predecessor shares this pivot,
	// and a half-applied failure must not corrupt it.
	st.pivot = st.pivot.Clone()
	uPlus := st.util.Append(points...)
	gPlus := s.gameFor(st, uPlus)
	rs := make([]*rng.Source, len(points))
	for i := range rs {
		rs[i] = r.Split()
	}
	sv, err := s.engine.BatchAddSame(st.pivot, gPlus, len(points), rs)
	if err != nil {
		return err
	}
	ops.perms += st.pivot.Tau
	st.sv = sv
	s.applyAppendBuilt(st, uPlus, points...)
	return nil
}

// addDeltaBatch runs the batched delta walk: one multi-point utility
// append, then one shared permutation pass valuing all pending points
// against the fixed pre-batch set (see Add's note on how this estimator
// relates to sequential AlgoDelta).
func (s *Session) addDeltaBatch(st *sessionState, points []Point, r *rng.Source, ops *opMetrics) error {
	uPlus := st.util.Append(points...)
	gPlus := s.gameFor(st, uPlus)
	s.engine.SetHeadBase(st.heads)
	sv, err := s.engine.BatchDeltaAdd(gPlus, st.sv, len(points), s.cfg.updateTau, r.Split())
	if err != nil {
		return err
	}
	ops.perms += s.engine.Stats().Issued
	st.sv = sv
	s.captureHeads(st)
	s.applyAppendBuilt(st, uPlus, points...)
	return nil
}

// addDelta applies the delta addition per point in sequence: each point is
// a k = 1 batch valued against the set grown by its predecessors, and
// consumes one split of r.
func (s *Session) addDelta(st *sessionState, points []Point, r *rng.Source, ops *opMetrics) error {
	for i := range points {
		if err := s.addDeltaBatch(st, points[i:i+1], r, ops); err != nil {
			return err
		}
	}
	return nil
}

// Delete removes the points at the given indices (in the current Data
// numbering) and returns the updated values, compacted to the surviving
// points' order. Deletions invalidate the session's precomputed YN-NN /
// YNN-NNN arrays; subsequent explicit AlgoYNNN calls need a Refresh first
// (AlgoAuto falls back to delta instead). Stored permutations survive
// exactly one deletion path — the batched pivot walk below; every other
// path drops them.
//
//   - AlgoAuto: exact YN-NN / YNN-NNN merge when the arrays are fresh and
//     cover the request, otherwise the batched pivot walk when stored
//     permutations are live, otherwise delta (batched for multi-point
//     requests), with a Monte Carlo fallback for bulk deletions; the
//     decision is journaled.
//   - AlgoYNNN: exact recovery from the YN-NN (single point) or YNN-NNN
//     (multiple points, if prepared) arrays; no model trainings.
//   - AlgoExactKNN: EXACT post-deletion values from the maintained
//     closed-form k-NN estimator (SoftKNNClassifier sessions only —
//     ErrExactUnavailable otherwise). Unlike the YN-NN arrays it never
//     goes stale, handles any tuple, and journals the departing points'
//     pre-delete exact values (RemovedValues).
//   - AlgoDelta: incremental, applied per point in sequence.
//   - AlgoDeltaBatch: ONE shared permutation pass prices every departing
//     point against the fixed pre-batch set — per permutation, the common
//     survivors' chain is walked once and each removal pays only its own
//     with-chain. Bit-identical to AlgoDelta at a single index. Note the
//     estimator differs from sequential AlgoDelta for k > 1: each point
//     departs from the FIXED pre-batch set rather than one shrunk by its
//     predecessors. Deterministic and worker-count invariant.
//   - AlgoPivotSameBatch: evolves the stored permutations through the whole
//     removal batch (subsequences of uniform random orders stay uniform)
//     and walks them once in the post-delete game — the only deletion that
//     KEEPS the pivot artifact alive, so later additions can still run
//     Pivot-s. Requires WithKeepPermutations; consumes no randomness.
//   - AlgoKNN / AlgoKNNPlus: instant heuristics.
//   - AlgoMonteCarlo / AlgoTruncatedMC: recompute from scratch.
//
// Batched deletions (AlgoDeltaBatch, AlgoPivotSameBatch, and AlgoExactKNN)
// journal the departing points' pre-delete values (RemovedValues), so the
// history records what each removed point was worth when it left.
func (s *Session) Delete(indices []int, algo Algorithm) ([]float64, error) {
	vals, _, err := s.deleteJournaled(indices, algo, false)
	return vals, err
}

// BatchDelete removes the points at the given indices in one batched
// update — sugar for Delete(indices, AlgoAuto), named for symmetry with
// the batched write pipeline (SubmitDelete): one multi-point utility and
// kernel removal, one permutation pass (or none, on the exact and pivot
// paths) pricing every departing point, one published version, one journal
// record with per-point RemovedValues attribution.
func (s *Session) BatchDelete(indices []int) ([]float64, error) {
	return s.Delete(indices, AlgoAuto)
}

// deleteJournaled is Delete plus the published journal record; see
// addJournaled for why the coalescer's executor needs it.
func (s *Session) deleteJournaled(indices []int, algo Algorithm, coalesced bool) ([]float64, journal.Update, error) {
	s.updateMu.Lock()
	defer s.updateMu.Unlock()
	cur := s.state.Load()
	if !cur.initialized {
		return nil, journal.Update{}, ErrNotInitialized
	}
	if len(indices) == 0 {
		return append([]float64(nil), cur.sv...), journal.Update{}, nil
	}
	n := cur.train.Len()
	seen := make(map[int]bool, len(indices))
	for _, p := range indices {
		if p < 0 || p >= n {
			return nil, journal.Update{}, fmt.Errorf("dynshap: delete index %d out of range [0,%d)", p, n)
		}
		if seen[p] {
			return nil, journal.Update{}, fmt.Errorf("dynshap: duplicate delete index %d", p)
		}
		seen[p] = true
	}
	st := cur.next()
	// Clone before the removal below mutates the estimator via
	// deriveRemove's maintenance hook.
	if st.exact != nil {
		st.exact = st.exact.Clone()
	}
	r := s.opSource(st.version)
	startFits, startPrefix := cur.totalFits(), cur.totalPrefixAdds()
	requested := algo
	var trace []string
	if algo == AlgoAuto {
		algo, trace = s.planUpdate(st, plan.OpDelete, len(indices), indices, coalesced)
	}
	if err := s.checkHeads(algo, len(indices)); err != nil {
		return nil, journal.Update{}, err
	}

	var ops opMetrics
	begin := time.Now()
	var (
		expanded []float64 // old indexing, zeros at deleted points
		// headsExp carries the extra semivalue heads in the same expanded
		// form, one slice per configured head; compacted alongside sv.
		headsExp [][]float64
		err      error
	)
	switch algo {
	case AlgoExactKNN:
		// The estimator produces the survivors' values directly in the
		// post-delete numbering, after deriveRemove maintains it below —
		// nothing to expand or compact here; expanded stays nil as the
		// marker for that path.
		if st.exact == nil {
			err = ErrExactUnavailable
		}
	case AlgoYNNN:
		expanded, headsExp, err = s.deleteYNNN(st, indices)
	case AlgoDelta:
		expanded, headsExp, err = s.deleteDelta(st, indices, r, &ops)
	case AlgoDeltaBatch:
		expanded, err = s.deleteDeltaBatch(st, indices, r, &ops)
	case AlgoPivotSameBatch:
		expanded, err = s.deletePivotBatch(st, indices, &ops)
	case AlgoKNN:
		expanded, err = core.KNNDelete(st.sv, st.train, indices, s.cfg.knnK)
	case AlgoKNNPlus:
		expanded, err = core.KNNPlusDelete(s.gameOf(st), st.train, st.sv, indices, nil, s.knnPlusCfg(), r.Split())
	case AlgoMonteCarlo, AlgoTruncatedMC:
		restricted := game.NewRestrict(s.gameOf(st), indices...)
		var sub []float64
		if algo == AlgoTruncatedMC {
			sub = s.engine.TruncatedMonteCarlo(restricted, s.cfg.updateTau, s.cfg.truncationTol, r.Split())
		} else {
			sub = s.engine.MonteCarlo(restricted, s.cfg.updateTau, r.Split())
		}
		ops.perms += s.engine.Stats().Issued
		expanded = make([]float64, n)
		for ri, orig := range restricted.Keep() {
			expanded[orig] = sub[ri]
		}
		// The engine folded the heads over the same restricted walks; its
		// output is in the survivors' (restricted) numbering.
		if s.cfg.headCount() > 0 {
			headsExp = make([][]float64, s.cfg.headCount())
			hv := s.engine.HeadValues()
			for h := range headsExp {
				headsExp[h] = make([]float64, n)
				if hv == nil || h >= len(hv) {
					continue
				}
				for ri, orig := range restricted.Keep() {
					headsExp[h][orig] = hv[h][ri]
				}
			}
		}
	default:
		err = fmt.Errorf("dynshap: algorithm %v does not support deletions", algo)
	}
	if err != nil {
		return nil, journal.Update{}, err
	}

	// Exact deletes journal the departing points' pre-delete exact values
	// — the estimator knows them, and once the points are gone no one else
	// ever will. The batched walks journal the same attribution from the
	// published estimates: the pre-delete value of each departing point, in
	// request order.
	var removedVals []float64
	if algo == AlgoExactKNN {
		// Read from the estimator, not st.sv: if initialisation ran a
		// sampled pass (artifact options), the published values carry
		// sampling error, but the estimator's are exact either way.
		pre := st.exact.Values()
		removedVals = make([]float64, len(indices))
		for i, idx := range indices {
			removedVals[i] = pre[idx]
		}
	} else if algo == AlgoDeltaBatch || algo == AlgoPivotSameBatch {
		removedVals = make([]float64, len(indices))
		for i, idx := range indices {
			removedVals[i] = cur.sv[idx]
		}
	}
	if expanded != nil {
		// Compact to the surviving points.
		compact := make([]float64, 0, n-len(indices))
		for i := 0; i < n; i++ {
			if !seen[i] {
				compact = append(compact, expanded[i])
			}
		}
		st.sv = compact
		if headsExp != nil {
			heads := make([][]float64, len(headsExp))
			for h, hv := range headsExp {
				c := make([]float64, 0, n-len(indices))
				for i := 0; i < n; i++ {
					if !seen[i] {
						c = append(c, hv[i])
					}
				}
				heads[h] = c
			}
			st.heads = heads
		}
	}
	st.train = st.train.Remove(indices...)
	s.deriveRemove(st, indices) // indices shifted: the old cache keys are invalid
	if expanded == nil {
		// Exact path: deriveRemove just maintained the estimator through
		// the removal; its reduction IS the survivors' values, already in
		// the compacted numbering.
		if st.exact == nil {
			return nil, journal.Update{}, ErrExactUnavailable
		}
		st.sv = st.exact.Values()
	}
	// The batched pivot walk evolved its (cloned) permutations through the
	// removal — the artifact stays live for later additions. Every other
	// deletion leaves the stored permutations describing a vanished player
	// set, so they are dropped. The YN-NN / YNN-NNN arrays are built for a
	// fixed player set and go stale regardless of path.
	if algo != AlgoPivotSameBatch {
		st.pivot = nil
	}
	st.del = nil
	st.multi = nil
	st.storesFresh = false
	u := journal.Update{
		Version:       st.version,
		Op:            "delete",
		Requested:     requestedName(requested, algo),
		Algo:          algo.String(),
		Indices:       indices,
		RemovedValues: removedVals,
		Coalesced:     coalesced,
		Trainings:     st.totalFits() - startFits,
		PrefixAdds:    st.totalPrefixAdds() - startPrefix,
		Permutations:  ops.perms,
		Seconds:       time.Since(begin).Seconds(),
		Decision:      trace,
	}
	s.publish(st, u)
	return append([]float64(nil), st.sv...), u, nil
}

func (s *Session) deleteYNNN(st *sessionState, indices []int) ([]float64, [][]float64, error) {
	if !st.storesFresh {
		return nil, nil, ErrStaleStores
	}
	if len(indices) == 1 {
		if st.del == nil {
			return nil, nil, errors.New("dynshap: AlgoYNNN needs WithTrackDeletions")
		}
		sv, err := st.del.Merge(indices[0])
		if err != nil {
			return nil, nil, err
		}
		// The YN-NN arrays hold raw utility sums, so every LINEAR head can
		// be re-priced from the same arrays with its own coefficient sweep —
		// still zero utility evaluations. (checkHeads rejected |·| heads.)
		var heads [][]float64
		if s.cfg.headCount() > 0 {
			heads = make([][]float64, s.cfg.headCount())
			for h, w := range s.cfg.semivalues {
				hv, err := st.del.MergeSemivalue(indices[0], w)
				if err != nil {
					return nil, nil, err
				}
				heads[h] = hv
			}
		}
		return sv, heads, nil
	}
	if st.multi == nil {
		return nil, nil, errors.New("dynshap: multi-point AlgoYNNN needs WithMultiDelete")
	}
	sv, err := st.multi.Merge(indices...)
	return sv, nil, err
}

// deleteDelta applies the delta deletion per point in sequence: each
// removal is a k = 1 batch in the game restricted by its predecessors,
// consuming one split of r. Values and heads are carried in the shrinking
// numbering and expanded back to the pre-delete one at the end.
func (s *Session) deleteDelta(st *sessionState, indices []int, r *rng.Source, ops *opMetrics) ([]float64, [][]float64, error) {
	cur := st.sv
	curHeads := st.heads
	if s.cfg.headCount() > 0 && len(curHeads) != s.cfg.headCount() {
		curHeads = make([][]float64, s.cfg.headCount())
		for h := range curHeads {
			if h < len(st.heads) {
				curHeads[h] = st.heads[h]
			} else {
				curHeads[h] = make([]float64, st.train.Len())
			}
		}
	}
	g := s.gameOf(st)
	rg := game.Game(g)
	// gone holds the removed original indices, ascending: a point's index in
	// the shrinking numbering is its original index minus the removals
	// below it.
	gone := make([]int, 0, len(indices))
	for j, orig := range indices {
		at := sort.SearchInts(gone, orig)
		ri := orig - at
		s.engine.SetHeadBase(curHeads)
		sub, err := s.engine.BatchDeltaDelete(rg, cur, []int{ri}, s.cfg.updateTau, r.Split())
		if err != nil {
			return nil, nil, err
		}
		ops.perms += s.engine.Stats().Issued
		// Drop the deleted slot.
		cur = append(sub[:ri:ri], sub[ri+1:]...)
		if curHeads != nil {
			hv := s.engine.HeadValues()
			next := make([][]float64, len(curHeads))
			for h := range next {
				next[h] = append(hv[h][:ri:ri], hv[h][ri+1:]...)
			}
			curHeads = next
		}
		gone = slices.Insert(gone, at, orig)
		rg = game.NewRestrict(g, indices[:j+1]...)
	}
	n := st.train.Len()
	expand := func(vals []float64) []float64 {
		out := make([]float64, n)
		ri, at := 0, 0
		for orig := 0; orig < n; orig++ {
			if at < len(gone) && gone[at] == orig {
				at++
				continue
			}
			out[orig] = vals[ri]
			ri++
		}
		return out
	}
	expanded := expand(cur)
	var headsExp [][]float64
	if curHeads != nil {
		headsExp = make([][]float64, len(curHeads))
		for h, hs := range curHeads {
			headsExp[h] = expand(hs)
		}
	}
	return expanded, headsExp, nil
}

// deleteDeltaBatch runs the batched delta deletion: one shared permutation
// pass over the common survivors prices every departing point against the
// fixed pre-batch set. The engine's output is already in the pre-delete
// numbering with zeros at the removed slots — exactly the expanded form
// deleteJournaled compacts. One r.Split() mirrors sequential deleteDelta's
// first split, so a single-index request is bit-identical to AlgoDelta
// (both are the k = 1 walk, adaptive stop included).
func (s *Session) deleteDeltaBatch(st *sessionState, indices []int, r *rng.Source, ops *opMetrics) ([]float64, error) {
	out, err := s.engine.BatchDeltaDelete(s.gameOf(st), st.sv, indices, s.cfg.updateTau, r.Split())
	if err != nil {
		return nil, err
	}
	ops.perms += s.engine.Stats().Issued
	return out, nil
}

// deletePivotBatch evolves the retained permutations through the whole
// removal batch and walks them ONCE in the post-delete game. It is the only
// deletion path that keeps the pivot artifact alive: deleteJournaled skips
// the pivot teardown for this algorithm, so the next addition can still run
// Pivot-s off the evolved permutations. Consumes no randomness.
func (s *Session) deletePivotBatch(st *sessionState, indices []int, ops *opMetrics) ([]float64, error) {
	if st.pivot == nil {
		return nil, ErrNotInitialized
	}
	// Clone before mutating: the published predecessor shares this pivot,
	// and a half-applied failure must not corrupt it.
	st.pivot = st.pivot.Clone()
	rg := game.NewRestrict(s.gameOf(st), indices...)
	sv, err := s.engine.BatchDeleteSame(st.pivot, rg, indices)
	if err != nil {
		return nil, err
	}
	ops.perms += s.engine.Stats().Issued
	// Expand the survivors' values back to the pre-delete numbering (zeros
	// at the removed slots) so the shared compaction below the switch
	// applies uniformly.
	expanded := make([]float64, st.train.Len())
	for ri, orig := range rg.Keep() {
		expanded[orig] = sv[ri]
	}
	return expanded, nil
}

// installBase publishes a state holding externally supplied values at the
// given version — how Resume and ReplayTo install history instead of
// recomputing it. An empty sv leaves the session uninitialised. heads, when
// non-nil, installs the extra semivalue heads' values alongside (Resume
// restores them from the snapshot; ReplayTo passes nil and lets the
// replayed operations rebuild them).
func (s *Session) installBase(sv []float64, heads [][]float64, version int) {
	s.updateMu.Lock()
	defer s.updateMu.Unlock()
	st := s.state.Load().next()
	st.version = version
	st.sv = append([]float64(nil), sv...)
	if heads != nil {
		st.heads = make([][]float64, len(heads))
		for h, hv := range heads {
			st.heads[h] = append([]float64(nil), hv...)
		}
	}
	st.initialized = len(sv) > 0
	st.storesFresh = false
	s.state.Store(st)
}

// ReplayTo deterministically reconstructs the session as of the given
// version: a fresh session is built over the journal's base dataset with
// this session's exact configuration, and every journaled update with
// Version ≤ version is re-applied with its recorded (resolved) algorithm.
// Operation randomness is keyed by (seed, version), so the returned
// session's values are bit-identical to the ones this session published
// at that version. The receiver is not modified — undo is
// ReplayTo(Version()−1) followed by adopting the result.
func (s *Session) ReplayTo(version int) (*Session, error) {
	jst := s.journal.State()
	base := 0
	if len(jst.Entries) > 0 {
		base = jst.Entries[0].Version - 1
	}
	last := base + len(jst.Entries)
	if version < base || version > last {
		return nil, fmt.Errorf("dynshap: version %d outside journal range [%d, %d]", version, base, last)
	}
	train := dataset.New(jst.Base)
	if jst.Classes > train.Classes {
		train.Classes = jst.Classes
	}
	s2 := newSessionFromConfig(train, s.test, s.trainer, s.cfg)
	s2.journal = journal.New(jst.Base, jst.Classes, jst.BaseValues)
	if len(jst.BaseValues) > 0 || base != 0 {
		s2.installBase(jst.BaseValues, nil, base)
	}
	for _, u := range jst.Entries {
		if u.Version > version {
			break
		}
		if err := s2.applyRecord(u); err != nil {
			return nil, fmt.Errorf("dynshap: replay of version %d (%s/%s): %w", u.Version, u.Op, u.Algo, err)
		}
		if got := s2.Version(); got != u.Version {
			return nil, fmt.Errorf("dynshap: replay drift: journal version %d produced state version %d", u.Version, got)
		}
	}
	return s2, nil
}

// ApplyRecord re-executes one journaled update against the live session —
// the restart path for servers that persist a snapshot plus a journal
// tail: Resume the snapshot, then ApplyRecord each tail entry in version
// order. The record's Version must extend the session's journal
// contiguously (Append enforces it), and the re-executed operation is
// bit-identical to the original because its randomness is keyed by
// (seed, version).
func (s *Session) ApplyRecord(u UpdateRecord) error {
	if want := s.Version() + 1; u.Version != want {
		return fmt.Errorf("dynshap: record version %d does not extend session version %d", u.Version, want-1)
	}
	return s.applyRecord(u)
}

// applyRecord re-executes one journaled update.
func (s *Session) applyRecord(u UpdateRecord) error {
	switch u.Op {
	case "init":
		return s.Init()
	case "refresh":
		return s.Refresh()
	case "add":
		algo, err := ParseAlgorithm(u.Algo)
		if err != nil {
			return err
		}
		_, _, err = s.addJournaled(u.Points, algo, u.Coalesced)
		return err
	case "delete":
		algo, err := ParseAlgorithm(u.Algo)
		if err != nil {
			return err
		}
		_, _, err = s.deleteJournaled(u.Indices, algo, u.Coalesced)
		return err
	default:
		return fmt.Errorf("unknown journal op %q", u.Op)
	}
}
