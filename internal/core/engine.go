package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"dynshap/internal/bitset"
	"dynshap/internal/game"
	"dynshap/internal/rng"
	"dynshap/internal/semivalue"
)

// This file implements the shared permutation engine behind the sampled
// estimators and the YN-NN / YNN-NNN preprocessing fills.
//
// Two ideas, composable and both deterministic:
//
//   - Stripe parallelism. The preprocessing fills pay almost their entire
//     cost in O(n²) array updates per permutation over O(n³) memory. The
//     engine runs a single producer that samples permutations and computes
//     prefix utilities once (through prefixWalker, so incremental
//     evaluators and the utility cache stay single-goroutine), then fans
//     each chunk of (perm, utilities) out to accumulator workers. Worker w
//     owns the contiguous stripe lo ≤ i < hi of the arrays' first axis and
//     folds only rows in its stripe — no per-worker array clones (the
//     naive approach costs workers × n³ floats), no locks. Every array
//     entry (i, ·, ·) is written by exactly one worker, which processes
//     chunks in issue order and permutations in order within a chunk, so
//     each entry receives float additions in exactly the serial order: the
//     result is bit-identical to the serial fill for a fixed seed, at any
//     worker count.
//
//   - Adaptive early termination. Work is issued in chunks; between chunks
//     the engine checks an empirical-Bernstein bound over the per-player
//     contributions observed so far (producer-side, so the decision is
//     independent of the worker count) and stops as soon as every player's
//     estimate is certified within eps at confidence 1−delta, recording
//     the τ actually spent instead of always burning the full budget.
//
// See DESIGN.md §9 for the determinism contract and the bound's failure
// modes.

// defaultChunkSize is the permutation batch issued between stripe
// dispatches and adaptive-bound checks: large enough to amortise channel
// and barrier overhead, small enough that early termination overshoots the
// certified τ by at most one in-flight batch.
const defaultChunkSize = 64

// adaptiveMinTau is the fewest permutations accumulated before the engine
// trusts the empirical bound; variance estimates below this are too noisy
// to certify anything.
const adaptiveMinTau = 32

// Engine runs permutation-sampling passes with stripe-parallel array fills
// and optional adaptive early termination. The zero value is not usable;
// construct with NewEngine. An Engine is not safe for concurrent use: it
// records per-pass statistics, and its fills mutate the target stores.
type Engine struct {
	workers int
	chunk   int
	eps     float64
	delta   float64
	trunc   int

	// heads are the extra semivalue weightings every head-capable pass
	// folds alongside the Shapley estimate (WithSemivalues). They are pure
	// producer-side bookkeeping: no randomness consumed, no stripe-worker
	// involvement, so the Shapley output is bit-identical with or without
	// them. headBase feeds the differential passes (BatchDeltaAdd, and
	// BatchDeltaDelete at k = 1: new = base + observed change); headVals
	// holds the most recent pass's per-head results.
	heads    []semivalue.Weighting
	headBase [][]float64
	headVals [][]float64

	// scratch caches the batched walks' reusable buffers across calls —
	// per-permutation perm/utility arrays, per-point accumulator matrices,
	// and the striped paths' chunk slots. The engine is single-writer (the
	// session serialises updates), so cached scratch is never shared
	// between concurrent passes; every buffer is resized on use and either
	// zeroed (accumulators) or fully overwritten before it is read. This
	// matters most under the write-coalescing pipeline, where every
	// admission window pays a batch walk: without the cache each window
	// re-allocates its whole O(k·n) scratch.
	scratch batchScratch

	stats EngineStats
}

// EngineOption configures an Engine.
type EngineOption func(*Engine)

// WithWorkers sets the number of accumulator workers for striped fills
// (≤0 selects GOMAXPROCS). Fill results are bit-identical at every worker
// count — the producer consumes all randomness and each worker owns a
// disjoint stripe of the arrays — so this is purely a throughput knob.
func WithWorkers(k int) EngineOption { return func(e *Engine) { e.workers = k } }

// WithChunkSize sets how many permutations are issued between stripe
// dispatches and adaptive-bound checks (default 64). The issued τ under
// adaptive stopping is always a chunk multiple (or the full budget), so
// the chunk size decides where early termination can land.
func WithChunkSize(c int) EngineOption { return func(e *Engine) { e.chunk = c } }

// WithTargetError enables adaptive early termination: a pass stops at the
// first chunk boundary where an empirical-Bernstein bound certifies every
// player's estimate within eps at confidence 1−delta, instead of spending
// the full τ budget. Stats().Issued reports the τ actually used. It
// panics if eps ≤ 0 or delta lies outside (0, 1).
func WithTargetError(eps, delta float64) EngineOption {
	if eps <= 0 || delta <= 0 || delta >= 1 {
		panic("core: WithTargetError needs eps > 0 and delta in (0, 1)")
	}
	return func(e *Engine) { e.eps, e.delta = eps, delta }
}

// WithTruncation enables stratified-truncated sampling (see ALGORITHMS.md
// and arXiv 2311.05346): every permutation walk stops after its first t
// positions, and walks are drawn in rotation blocks — each block shares
// one uniformly drawn base permutation, and walk s of the block rotates it
// by s·t positions, so every player lands inside the truncated window
// exactly once per block (when t divides n; nearly so otherwise). Each
// rotated permutation is itself uniformly distributed, so the sampled
// arrays stay unbiased for strata k ≤ t; strata k > t are never written
// and contribute zero, which is the documented truncation bias (small
// under diminishing returns). Cuts both utility evaluations and array
// updates per walk from O(n) and O(n²) to O(t) and O(t·n).
//
// t ≤ 0 disables truncation; t ≥ n is a no-op. Incompatible with kept
// permutations (InitOptions.KeepPerms) — truncated walks don't carry full
// prefix information.
func WithTruncation(t int) EngineOption { return func(e *Engine) { e.trunc = t } }

// WithSemivalues configures extra semivalue heads: every head-capable pass
// (Initialize, MonteCarlo, TruncatedMonteCarlo, BatchDeltaAdd,
// single-point BatchDeltaDelete, the preprocessing fills) prices each
// weighting from the same permutation walks and exposes the results
// through HeadValues.
// Shapley itself needs no head — it is the pass's native output; passing
// it anyway just prices it a second time through the weighted fold.
// Pivot-based passes (BatchAddSame) cannot carry heads: their suffix walks
// never observe the old players' marginals, and their LSV reuse recurrence
// is Shapley-specific — they leave HeadValues nil.
func WithSemivalues(ws ...semivalue.Weighting) EngineOption {
	return func(e *Engine) { e.heads = append([]semivalue.Weighting(nil), ws...) }
}

// NewEngine returns an Engine with the given options.
func NewEngine(opts ...EngineOption) *Engine {
	e := &Engine{chunk: defaultChunkSize}
	for _, o := range opts {
		o(e)
	}
	if e.chunk <= 0 {
		e.chunk = defaultChunkSize
	}
	return e
}

// EngineStats describes the engine's most recent pass.
type EngineStats struct {
	// Budget is the τ requested; Issued is the τ actually accumulated —
	// smaller than Budget when adaptive stopping fired.
	Budget, Issued int
	// Workers is the accumulator goroutine count the pass used (1 for
	// purely producer-side passes such as plain Monte Carlo estimation).
	Workers int
	// EarlyStop reports whether the adaptive bound ended the pass before
	// the budget; Bound is the certified half-width at the last check
	// (+Inf before enough samples, 0 when adaptive mode was off).
	EarlyStop bool
	Bound     float64
	// Truncation is the effective walk length of a stratified-truncated
	// pass (0 when truncation was off — walks covered all n positions).
	Truncation int
	// Updates counts array-fill updates performed and Seconds the wall
	// time of the pass, together giving the fill throughput.
	Updates int64
	Seconds float64
	// KernelBytes is the heap footprint of the utility's precomputed
	// distance kernel when the pass ran against one (0 otherwise). The
	// engine itself is game-agnostic; owners that pair it with a
	// kernel-backed utility — the session — fill this in when publishing,
	// so large-n runs can see the m×n matrix in their accounting.
	KernelBytes int64
}

// Throughput returns the fill rate in array updates per second (0 for
// passes without striped fills).
func (s EngineStats) Throughput() float64 {
	if s.Seconds <= 0 {
		return 0
	}
	return float64(s.Updates) / s.Seconds
}

// Stats returns the statistics of the engine's most recent pass.
func (e *Engine) Stats() EngineStats { return e.stats }

// Heads returns the configured extra semivalue heads.
func (e *Engine) Heads() []semivalue.Weighting { return e.heads }

// SetHeadBase supplies the per-head values the next differential pass
// (BatchDeltaAdd, BatchDeltaDelete at k = 1) updates from, aligned with the
// configured heads. A nil base — or a pass over a game the base was not
// sized for — treats missing entries as zero. Full passes ignore it.
func (e *Engine) SetHeadBase(base [][]float64) { e.headBase = base }

// HeadValues returns the extra heads' values from the most recent pass,
// aligned with the configured heads, or nil when the pass carried none
// (no heads configured, or a head-incapable pass). The caller owns the
// returned slices; the next pass replaces them.
func (e *Engine) HeadValues() [][]float64 { return e.headVals }

func (e *Engine) adaptive() bool { return e.eps > 0 }

// effectiveWorkers resolves the worker option against the row count.
func (e *Engine) effectiveWorkers(n int) int {
	w := e.workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// stripeTarget is a structure whose per-permutation accumulation
// partitions by the first array axis (the player row). Both deletion
// stores implement it.
type stripeTarget interface {
	// newAux allocates one permutation's worth of producer-side metadata
	// (nil when the target needs none).
	newAux() []int
	// prepare fills aux for the permutation and returns how many array
	// updates the permutation costs, for throughput accounting. It runs
	// in the producer and consumes no randomness. Only the first walk
	// positions of the permutation will be accumulated.
	prepare(perm []int, aux []int, walk int) int64
	// accumulateStripe folds one permutation into rows lo ≤ i < hi.
	// utilities[pos] holds U({perm[0..pos]}) for pos < walk (entries past
	// walk are stale and must not be read); uEmpty is U(∅). Rows outside
	// [lo, hi) must not be touched, and neither may SV or τ — the
	// producer owns those.
	accumulateStripe(perm []int, utilities []float64, uEmpty float64, aux []int, lo, hi, walk int)
}

// walkLen resolves the engine's truncation against the player count: the
// number of leading permutation positions a pass walks and accumulates.
func (e *Engine) walkLen(n int) int {
	if e.trunc > 0 && e.trunc < n {
		return e.trunc
	}
	return n
}

// permSampler draws the pass's permutations. Untruncated it is exactly
// r.Perm — the historic randomness stream, bit-identical. Truncated it
// draws one uniform base permutation per rotation block and rotates it by
// walk positions between samples: each rotation of a uniform permutation
// is itself uniform (so every sample is an unbiased truncated walk), and
// across one block every player visits the truncated window once (when
// walk divides n), stratifying the positions players are observed at.
type permSampler struct {
	r     *rng.Source
	n     int
	walk  int
	block int // rotations per base permutation: ⌈n/walk⌉
	rot   int
	base  []int
}

func newPermSampler(r *rng.Source, n, walk int) *permSampler {
	s := &permSampler{r: r, n: n, walk: walk, block: 1}
	if walk < n {
		s.block = (n + walk - 1) / walk
		s.base = make([]int, n)
	}
	return s
}

func (s *permSampler) next(perm []int) {
	if s.block <= 1 {
		s.r.Perm(perm)
		return
	}
	if s.rot == 0 {
		s.r.Perm(s.base)
	}
	// rot < block = ⌈n/walk⌉ ⇒ off = rot·walk < n, so one wrap suffices.
	off := s.rot * s.walk
	for q := 0; q < s.n; q++ {
		j := q + off
		if j >= s.n {
			j -= s.n
		}
		perm[q] = s.base[j]
	}
	s.rot++
	if s.rot == s.block {
		s.rot = 0
	}
}

// fillRun describes one engine pass over sampled permutations.
type fillRun struct {
	g       game.Game
	tau     int
	r       *rng.Source
	targets []stripeTarget
	// perPerm runs in the producer after each permutation's utilities are
	// filled; it may consume randomness (it runs in sample order) and
	// owns all non-striped bookkeeping (Shapley sums, pivot LSV, kept
	// permutations). Only utilities[0:walk] are valid.
	perPerm func(perm []int, utilities []float64, uEmpty float64, walk int)
	// freshPerms allocates a new permutation slice per sample so perPerm
	// may retain it (KeepPerms); otherwise one buffer is reused.
	freshPerms bool
	// heads are the extra semivalue weightings this pass folds from the
	// same walks (producer-side, after perPerm, consuming no randomness).
	heads []semivalue.Weighting
}

// run executes the pass and returns the number of permutations issued.
// Callers guarantee n ≥ 1 and tau ≥ 1.
func (e *Engine) run(fr fillRun) int {
	n := fr.g.N()
	workers := 1
	if len(fr.targets) > 0 {
		workers = e.effectiveWorkers(n)
	}
	e.stats = EngineStats{Budget: fr.tau, Workers: workers}
	if e.walkLen(n) < n {
		e.stats.Truncation = e.walkLen(n)
	}

	w := newPrefixWalker(fr.g)
	uEmpty := fr.g.Value(bitset.New(n))
	var trk *adaptiveTracker
	if e.adaptive() {
		trk = newAdaptiveTracker(n, e.eps, e.delta)
	}
	// Extra semivalue heads fold in the producer after perPerm — behind
	// all randomness draws, outside all stripes — so they change neither
	// the random stream nor any Shapley-path arithmetic.
	hf := newHeadFold(fr.heads, n)
	e.headVals = nil

	start := time.Now()
	var issued int
	if workers == 1 {
		issued = e.runSerial(fr, w, uEmpty, trk, hf)
	} else {
		issued = e.runStriped(fr, w, uEmpty, trk, hf, workers)
	}
	e.stats.Seconds = time.Since(start).Seconds()
	e.stats.Issued = issued
	e.stats.EarlyStop = issued < fr.tau
	if trk != nil {
		e.stats.Bound = trk.lastBound
	}
	if hf != nil {
		e.headVals = hf.finish(issued)
	}
	return issued
}

// runSerial is the single-goroutine path: produce and accumulate inline.
// It performs exactly the accumulation sequence of the historic serial
// fills, so delegating the serial entry points here changes nothing.
func (e *Engine) runSerial(fr fillRun, w *prefixWalker, uEmpty float64, trk *adaptiveTracker, hf *headFold) int {
	n := fr.g.N()
	walk := e.walkLen(n)
	sampler := newPermSampler(fr.r, n, walk)
	perm := make([]int, n)
	utilities := make([]float64, n)
	auxes := make([][]int, len(fr.targets))
	for ti, t := range fr.targets {
		auxes[ti] = t.newAux()
	}
	issued := 0
	for issued < fr.tau {
		if fr.freshPerms {
			perm = make([]int, n)
		}
		sampler.next(perm)
		w.reset()
		for pos := 0; pos < walk; pos++ {
			utilities[pos] = w.add(perm[pos])
		}
		if fr.perPerm != nil {
			fr.perPerm(perm, utilities, uEmpty, walk)
		}
		if hf != nil {
			hf.foldWalk(perm, utilities, uEmpty, walk)
		}
		for ti, t := range fr.targets {
			e.stats.Updates += t.prepare(perm, auxes[ti], walk)
			t.accumulateStripe(perm, utilities, uEmpty, auxes[ti], 0, n, walk)
		}
		if trk != nil {
			trk.observeWalk(perm, utilities, uEmpty, walk)
		}
		issued++
		if trk != nil && issued%e.chunk == 0 && issued >= adaptiveMinTau &&
			issued < fr.tau && trk.met() {
			break
		}
	}
	return issued
}

// fillChunk is one batch of sampled permutations in flight between the
// producer and the stripe workers.
type fillChunk struct {
	count int
	perms [][]int
	utils [][]float64
	aux   [][][]int // [perm][target]
	wg    sync.WaitGroup
}

// runStriped is the parallel path: the producer fills double-buffered
// chunks and broadcasts each to every worker; worker w folds only its
// stripe. The producer overlaps sampling chunk c+1 with the accumulation
// of chunk c; the adaptive bound is producer-side, so the stop decision
// never waits on workers and is identical at every worker count.
func (e *Engine) runStriped(fr fillRun, w *prefixWalker, uEmpty float64, trk *adaptiveTracker, hf *headFold, workers int) int {
	n := fr.g.N()
	walk := e.walkLen(n)
	sampler := newPermSampler(fr.r, n, walk)
	const depth = 2
	slots := make([]*fillChunk, depth)
	for s := range slots {
		c := &fillChunk{
			perms: make([][]int, e.chunk),
			utils: make([][]float64, e.chunk),
			aux:   make([][][]int, e.chunk),
		}
		for p := 0; p < e.chunk; p++ {
			if !fr.freshPerms {
				c.perms[p] = make([]int, n)
			}
			c.utils[p] = make([]float64, n)
			c.aux[p] = make([][]int, len(fr.targets))
			for ti, t := range fr.targets {
				c.aux[p][ti] = t.newAux()
			}
		}
		slots[s] = c
	}

	chans := make([]chan *fillChunk, workers)
	var wwg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		chans[wk] = make(chan *fillChunk, depth)
		lo, hi := wk*n/workers, (wk+1)*n/workers
		wwg.Add(1)
		go func(lo, hi int, ch chan *fillChunk) {
			defer wwg.Done()
			for c := range ch {
				for p := 0; p < c.count; p++ {
					for ti, t := range fr.targets {
						t.accumulateStripe(c.perms[p], c.utils[p], uEmpty, c.aux[p][ti], lo, hi, walk)
					}
				}
				c.wg.Done()
			}
		}(lo, hi, chans[wk])
	}

	issued := 0
	for si := 0; issued < fr.tau; si++ {
		c := slots[si%depth]
		c.wg.Wait() // previous dispatch of this buffer fully drained
		count := e.chunk
		if rem := fr.tau - issued; rem < count {
			count = rem
		}
		c.count = count
		for p := 0; p < count; p++ {
			if fr.freshPerms {
				c.perms[p] = make([]int, n)
			}
			perm := c.perms[p]
			sampler.next(perm)
			w.reset()
			u := c.utils[p]
			for pos := 0; pos < walk; pos++ {
				u[pos] = w.add(perm[pos])
			}
			if fr.perPerm != nil {
				fr.perPerm(perm, u, uEmpty, walk)
			}
			if hf != nil {
				hf.foldWalk(perm, u, uEmpty, walk)
			}
			for ti, t := range fr.targets {
				e.stats.Updates += t.prepare(perm, c.aux[p][ti], walk)
			}
			if trk != nil {
				trk.observeWalk(perm, u, uEmpty, walk)
			}
		}
		c.wg.Add(workers)
		for _, ch := range chans {
			ch <- c
		}
		issued += count
		if trk != nil && issued%e.chunk == 0 && issued >= adaptiveMinTau &&
			issued < fr.tau && trk.met() {
			break
		}
	}
	for _, ch := range chans {
		close(ch)
	}
	wwg.Wait()
	return issued
}

// PreprocessDeletion is Algorithm 6 through the engine: the Monte Carlo
// fill of the YN-NN arrays with stripe-parallel accumulation and, when
// configured, adaptive early termination. Bit-identical to the serial
// PreprocessDeletion for a fixed seed at every worker count.
func (e *Engine) PreprocessDeletion(g game.Game, tau int, r *rng.Source) *DeletionStore {
	ds, _ := e.PreprocessDeletionWith(g, tau, r, StoreConfig{})
	return ds
}

// PreprocessDeletionWith is PreprocessDeletion with an explicit storage
// backend for the YN-NN arrays. Only the spill backend can fail.
func (e *Engine) PreprocessDeletionWith(g game.Game, tau int, r *rng.Source, cfg StoreConfig) (*DeletionStore, error) {
	n := g.N()
	ds, err := NewDeletionStoreWith(n, cfg)
	if err != nil {
		return nil, err
	}
	e.stats = EngineStats{Budget: tau}
	if n == 0 || tau <= 0 {
		return ds, nil
	}
	issued := e.run(fillRun{
		g: g, tau: tau, r: r,
		targets: []stripeTarget{ds},
		heads:   e.heads,
		// The producer owns the Shapley sums; the store's striped
		// accumulation covers only the arrays.
		perPerm: func(perm []int, utilities []float64, uEmpty float64, walk int) {
			accumulateMarginals(perm, utilities, uEmpty, ds.SV, walk)
		},
	})
	ds.tau = issued
	ds.finishSampled()
	return ds, nil
}

// PreprocessMultiDeletion is the YNN-NNN fill through the engine.
func (e *Engine) PreprocessMultiDeletion(g game.Game, d int, candidates []int, tau int, r *rng.Source) (*MultiDeletionStore, error) {
	return e.PreprocessMultiDeletionWith(g, d, candidates, tau, r, StoreConfig{})
}

// PreprocessMultiDeletionWith is PreprocessMultiDeletion with an explicit
// storage backend for the YNN-NNN arrays.
func (e *Engine) PreprocessMultiDeletionWith(g game.Game, d int, candidates []int, tau int, r *rng.Source, cfg StoreConfig) (*MultiDeletionStore, error) {
	n := g.N()
	ms, err := NewMultiDeletionStoreWith(n, d, candidates, cfg)
	if err != nil {
		return nil, err
	}
	e.stats = EngineStats{Budget: tau}
	if n == 0 || tau <= 0 {
		return ms, nil
	}
	issued := e.run(fillRun{
		g: g, tau: tau, r: r,
		targets: []stripeTarget{ms},
		heads:   e.heads,
		perPerm: func(perm []int, utilities []float64, uEmpty float64, walk int) {
			accumulateMarginals(perm, utilities, uEmpty, ms.SV, walk)
		},
	})
	ms.tau = issued
	ms.finishSampled()
	return ms, nil
}

// Initialize is the combined initialisation pass (Shapley estimates,
// pivot LSV, and any requested deletion stores) through the engine:
// identical sampling to the package-level Initialize, with the store
// fills striped across workers and optional adaptive early termination.
func (e *Engine) Initialize(g game.Game, tau int, opt InitOptions, r *rng.Source) (*InitResult, error) {
	n := g.N()
	if opt.KeepPerms && e.walkLen(n) < n {
		return nil, fmt.Errorf("core: truncation (t = %d) is incompatible with kept permutations — truncated walks carry no full prefix information", e.trunc)
	}
	res := &InitResult{
		Pivot: &PivotState{
			SV:  make([]float64, n),
			LSV: make([]float64, n),
			Tau: tau,
		},
	}
	if opt.KeepPerms {
		res.Pivot.perms = make([][]int, 0, tau)
		res.Pivot.slots = make([]int, 0, tau)
	}
	if opt.TrackDeletions {
		ds, err := NewDeletionStoreWith(n, opt.Store)
		if err != nil {
			return nil, err
		}
		res.Deletion = ds
	}
	if opt.MultiDelete >= 1 {
		ms, err := NewMultiDeletionStoreWith(n, opt.MultiDelete, opt.Candidates, opt.Store)
		if err != nil {
			return nil, err
		}
		res.Multi = ms
	}
	e.stats = EngineStats{Budget: tau}
	e.headVals = nil
	if n == 0 || tau <= 0 {
		return res, nil
	}

	var targets []stripeTarget
	if res.Deletion != nil {
		targets = append(targets, res.Deletion)
	}
	if res.Multi != nil {
		targets = append(targets, res.Multi)
	}
	heads := opt.Heads
	if heads == nil {
		heads = e.heads
	}
	st := res.Pivot
	issued := e.run(fillRun{
		g: g, tau: tau, r: r,
		targets:    targets,
		freshPerms: opt.KeepPerms,
		heads:      heads,
		perPerm: func(perm []int, utilities []float64, uEmpty float64, walk int) {
			// Same randomness order as the historic loop: the slot draw
			// follows the permutation draw (the walker consumes none).
			t := r.Intn(n + 1)
			prev := uEmpty
			for pos := 0; pos < walk; pos++ {
				p := perm[pos]
				cur := utilities[pos]
				m := cur - prev
				st.SV[p] += m
				if pos < t {
					st.LSV[p] += m
				}
				prev = cur
			}
			if opt.KeepPerms {
				st.perms = append(st.perms, perm)
				st.slots = append(st.slots, t)
			}
		},
	})
	st.Tau = issued
	res.HeadValues = e.headVals
	// The stores' SV sums equal the pivot's (same marginals, same order);
	// install them before the pivot divides, then let each store apply
	// its own historic normalisation (multiply by 1/τ).
	if res.Deletion != nil {
		copy(res.Deletion.SV, st.SV)
		res.Deletion.tau = issued
		res.Deletion.finishSampled()
	}
	if res.Multi != nil {
		copy(res.Multi.SV, st.SV)
		res.Multi.tau = issued
		res.Multi.finishSampled()
	}
	for i := 0; i < n; i++ {
		st.SV[i] /= float64(issued)
		st.LSV[i] /= float64(issued)
	}
	return res, nil
}

// MonteCarlo is Algorithm 1 through the engine: permutation sampling in
// chunks with optional adaptive early termination. With adaptive mode off
// it is bit-identical to the package-level MonteCarlo for the same seed.
func (e *Engine) MonteCarlo(g game.Game, tau int, r *rng.Source) []float64 {
	n := g.N()
	sv := make([]float64, n)
	e.stats = EngineStats{Budget: tau}
	if n == 0 || tau <= 0 {
		return sv
	}
	issued := e.run(fillRun{
		g: g, tau: tau, r: r,
		heads: e.heads,
		perPerm: func(perm []int, utilities []float64, uEmpty float64, walk int) {
			accumulateMarginals(perm, utilities, uEmpty, sv, walk)
		},
	})
	for i := range sv {
		sv[i] /= float64(issued)
	}
	return sv
}

// accumulateMarginals folds the first walk positions of one walked
// permutation's marginal contributions into sv.
func accumulateMarginals(perm []int, utilities []float64, uEmpty float64, sv []float64, walk int) {
	prev := uEmpty
	for pos := 0; pos < walk; pos++ {
		cur := utilities[pos]
		sv[perm[pos]] += cur - prev
		prev = cur
	}
}

// TruncatedMonteCarlo is TMC through the engine. Truncation skips the
// tail's utility evaluations, so this pass cannot share run()'s full-walk
// producer; the chunked adaptive loop is inlined instead. Truncated
// players observe a zero contribution — exactly what the estimator
// credits them. With adaptive mode off it is bit-identical to the
// package-level TruncatedMonteCarlo.
func (e *Engine) TruncatedMonteCarlo(g game.Game, tau int, tol float64, r *rng.Source) []float64 {
	n := g.N()
	sv := make([]float64, n)
	e.stats = EngineStats{Budget: tau, Workers: 1}
	e.headVals = nil
	if n == 0 || tau <= 0 {
		return sv
	}
	perm := make([]int, n)
	w := newPrefixWalker(g)
	empty := g.Value(bitset.New(n))
	full := g.Value(bitset.Full(n))
	minPos := (n + 1) / 2
	var trk *adaptiveTracker
	if e.adaptive() {
		trk = newAdaptiveTracker(n, e.eps, e.delta)
	}
	// Extra heads see the same truncation as the Shapley estimate: a
	// position past the cut is credited zero for every weighting.
	hf := newHeadFold(e.heads, n)
	start := time.Now()
	issued := 0
	for issued < tau {
		r.Perm(perm)
		w.reset()
		prev := empty
		for pos, p := range perm {
			if pos >= minPos && abs(full-prev) < tol {
				if trk != nil {
					for _, q := range perm[pos:] {
						trk.observe(q, 0)
					}
				}
				break
			}
			cur := w.add(p)
			sv[p] += cur - prev
			if hf != nil {
				hf.foldPos(pos, p, cur-prev)
			}
			if trk != nil {
				trk.observe(p, cur-prev)
			}
			prev = cur
		}
		if trk != nil {
			trk.endSample()
		}
		issued++
		if trk != nil && issued%e.chunk == 0 && issued >= adaptiveMinTau &&
			issued < tau && trk.met() {
			break
		}
	}
	e.stats.Seconds = time.Since(start).Seconds()
	e.stats.Issued = issued
	e.stats.EarlyStop = issued < tau
	if trk != nil {
		e.stats.Bound = trk.lastBound
	}
	if hf != nil {
		e.headVals = hf.finish(issued)
	}
	for i := range sv {
		sv[i] /= float64(issued)
	}
	return sv
}

// DeltaAdd is BatchDeltaAdd at k = 1 — the single-point delta addition,
// adaptive stop and extra heads included. It has no walk of its own; it
// stays only for callers written against the single-point name (the
// perfbench trace shadow). New code calls BatchDeltaAdd directly.
func (e *Engine) DeltaAdd(gPlus game.Game, oldSV []float64, tau int, r *rng.Source) ([]float64, error) {
	return e.BatchDeltaAdd(gPlus, oldSV, 1, tau, r)
}

// adaptiveTracker maintains the per-player moments behind the stopping
// rule. One observation per player per sample (a per-permutation marginal
// or differential contribution); the half-width certified for player i
// after t samples is the Maurer–Pontil empirical-Bernstein bound
//
//	h_i = sqrt(2·V_i·L/t) + 3·R_i·L/t,  L = ln(3n/δ),
//
// with V_i the empirical variance, R_i the OBSERVED range standing in for
// the true range (the documented approximation: a later sample landing
// outside the range seen so far voids the certificate — DESIGN.md §9),
// and the union bound over the n players folded into L.
type adaptiveTracker struct {
	eps, delta float64
	n          int
	t          int
	sum        []float64
	sumsq      []float64
	min, max   []float64
	lastBound  float64
}

func newAdaptiveTracker(n int, eps, delta float64) *adaptiveTracker {
	a := &adaptiveTracker{
		eps: eps, delta: delta, n: n,
		sum:       make([]float64, n),
		sumsq:     make([]float64, n),
		min:       make([]float64, n),
		max:       make([]float64, n),
		lastBound: math.Inf(1),
	}
	for i := 0; i < n; i++ {
		a.min[i] = math.Inf(1)
		a.max[i] = math.Inf(-1)
	}
	return a
}

// observe records one observation for player i.
func (a *adaptiveTracker) observe(i int, x float64) {
	a.sum[i] += x
	a.sumsq[i] += x * x
	if x < a.min[i] {
		a.min[i] = x
	}
	if x > a.max[i] {
		a.max[i] = x
	}
}

// observeWalk records the walked players' marginals from one (possibly
// truncated) permutation and closes the sample.
func (a *adaptiveTracker) observeWalk(perm []int, utilities []float64, uEmpty float64, walk int) {
	prev := uEmpty
	for pos := 0; pos < walk; pos++ {
		cur := utilities[pos]
		a.observe(perm[pos], cur-prev)
		prev = cur
	}
	a.t++
}

// endSample closes one sample for trackers fed via observe.
func (a *adaptiveTracker) endSample() { a.t++ }

// bound returns the widest per-player half-width certified so far.
func (a *adaptiveTracker) bound() float64 {
	if a.t < 2 {
		return math.Inf(1)
	}
	t := float64(a.t)
	l := math.Log(3 * float64(a.n) / a.delta)
	worst := 0.0
	for i := 0; i < a.n; i++ {
		v := (a.sumsq[i] - a.sum[i]*a.sum[i]/t) / (t - 1)
		if v < 0 {
			v = 0 // guard FP cancellation
		}
		r := a.max[i] - a.min[i]
		if r < 0 {
			r = 0 // player never observed (e.g. the deleted point)
		}
		h := math.Sqrt(2*v*l/t) + 3*r*l/t
		if h > worst {
			worst = h
		}
	}
	return worst
}

// met reports whether the bound satisfies the target, caching the value
// for the pass's stats.
func (a *adaptiveTracker) met() bool {
	a.lastBound = a.bound()
	return a.lastBound <= a.eps
}
