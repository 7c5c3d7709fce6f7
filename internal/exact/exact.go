// Package exact implements the closed-form exact k-NN Shapley estimator of
// Jia et al. ("Efficient task-specific data valuation for nearest neighbor
// algorithms", VLDB 2019) over the session's precomputed distance kernel —
// and makes it *dynamic*: the per-test-point sorted neighbour orders are
// maintained incrementally under insertions and deletions, so an update
// costs O(m·(log n + affected ranks)) order maintenance plus one O(m·n)
// deterministic reduction, instead of any permutation walk.
//
// # The recurrence, in suffix-recomputable form
//
// For one test point t with the training points sorted by distance
// (0-based rank r, 1-based position i = r+1), Jia et al.'s Theorem 1 gives
//
//	s_{α_n} = 1[y_{α_n}=y_t]/max(n,k)
//	s_{α_i} = s_{α_{i+1}} + (1[y_{α_i}=y_t] − 1[y_{α_{i+1}}=y_t])/k · min(k,i)/i
//
// (the base term is usually quoted as 1[·]/n, which assumes n ≥ k; the
// max(n,k) form is the one that matches the soft utility for every n)
//
// The backward recurrence itself cannot be reused incrementally — its base
// term 1[·]/n changes globally whenever n does. The estimator therefore
// stores the telescoped prefix form: the pairwise differences
//
//	d_i = (1[y_{α_i}=y_t] − 1[y_{α_{i+1}}=y_t])/k · min(k,i)/i
//
// depend only on positions i, i+1, and the prefix sums
//
//	t[0] = 0,  t[r] = t[r−1] + d_r          (so t[r] = s_{α_1} − s_{α_{r+1}})
//	s_{α_1} = 1[y_{α_n}=y_t]/max(n,k) + t[n−1]
//	s_{α_{r+1}} = s_{α_1} − t[r]
//
// An insertion or deletion at rank r leaves every d before it — and
// therefore the t prefix up to r — bit-identical, so the estimator
// recomputes t only from r on ("affected ranks") and reads the same
// floating-point results a from-scratch rebuild would produce. That
// invariant is what makes the dynamic path EXACTLY equal — not merely
// close — to recomputation, and it is enforced by tests after every update
// of a long soak sequence.
//
// # Tie order and physical column ids
//
// Orders store the kernel's physical column ids (see DistanceKernel.Phys):
// within any view, ascending physical id is ascending logical index, so a
// stable sort by distance equals a sort by (distance, physical id).
// Binary insertion places a new point after every equal distance — its
// physical id exceeds all existing ones — reproducing the stable sort;
// deletions remove entries without renumbering anything. Labels live in an
// append-only array indexed by physical id, so no maintained state ever
// needs remapping when logical indices shift.
//
// # Determinism and parallelism
//
// Maintenance is parallel over test columns (each column's state is
// independent). The value reduction is one serial pass: for each test
// column in ascending order it adds every point's per-test value into a
// per-physical-id accumulator, so each point's m contributions are summed
// in ascending test order whatever the worker count — bit-identical at any
// worker count, matching the engine contract.
package exact

import (
	"math"
	"runtime"
	"sort"
	"sync"

	"dynshap/internal/dataset"
)

// Estimator maintains exact k-NN Shapley values over a distance kernel.
// It is a cache in the versioned-store sense: every field is reproducible
// from the kernel and the labels, so snapshots never persist it — Resume
// and ReplayTo rebuild it deterministically. Not safe for concurrent use:
// its owner mutates it in place (Add, Delete, and the reduction behind
// Values) and must serialise those calls.
type Estimator struct {
	k       int
	m       int // test points
	workers int
	kernel  *dataset.DistanceKernel

	// testLab[j] is test point j's label; physLab[p] the label of the
	// training point backing physical column p (append-only, survives
	// deletions — tombstoned columns keep their label).
	testLab []int32
	physLab []int32

	// orders[j] lists live physical column ids by ascending (distance to
	// test j, physical id) — the stable-sorted neighbour order. tvals[j]
	// holds the prefix sums t above, index-aligned with orders[j]; s1[j]
	// is s_{α_1}, the nearest neighbour's per-test Shapley value.
	orders [][]int32
	tvals  [][]float64
	s1     []float64

	// sv caches the reduced values by logical index; dirty marks it stale
	// after maintenance. acc is the reduction's per-physical-id
	// accumulator (PhysExtent floats), reused across reductions.
	sv    []float64
	acc   []float64
	dirty bool
}

// New builds the estimator from scratch: one stable sort per test column,
// O(m·n log n) total — the only time the full sort runs. trainLabels is
// logical-indexed and must align with kernel's columns; testLabels with
// its rows. k must be ≥ 1.
func New(kernel *dataset.DistanceKernel, trainLabels, testLabels []int, k, workers int) *Estimator {
	n := kernel.Cols()
	m := kernel.Rows()
	e := &Estimator{
		k:       k,
		m:       m,
		workers: workers,
		kernel:  kernel,
		testLab: make([]int32, m),
		physLab: make([]int32, kernel.PhysExtent()),
		orders:  make([][]int32, m),
		tvals:   make([][]float64, m),
		s1:      make([]float64, m),
		dirty:   true,
	}
	for j, y := range testLabels {
		e.testLab[j] = int32(y)
	}
	for i := 0; i < n; i++ {
		e.physLab[kernel.Phys(i)] = int32(trainLabels[i])
	}
	e.parallel(m, func(lo, hi int) {
		sc := newRadixScratch(n)
		for j := lo; j < hi; j++ {
			e.buildColumn(j, sc)
		}
	})
	return e
}

// rankKey pairs one training point's distance to a test point — as the IEEE
// bit pattern of the float64, which orders identically to the numeric value
// for the non-negative distances the kernel produces — with its logical
// index. Sorting by (bits, idx) equals a stable sort by distance: ties keep
// ascending logical order, which is ascending physical id.
type rankKey struct {
	bits uint64
	idx  int32
}

// keyLess orders rankKeys by (bits, idx) — the insertion-sort path for
// short columns.
func keyLess(a, b rankKey) bool {
	return a.bits < b.bits || (a.bits == b.bits && a.idx < b.idx)
}

// radixScratch holds the swap buffer and byte histograms one goroutine
// reuses across the columns it builds.
type radixScratch struct {
	keys []rankKey
	buf  []rankKey
	hist [8][256]int32
}

func newRadixScratch(n int) *radixScratch {
	return &radixScratch{keys: make([]rankKey, n), buf: make([]rankKey, n)}
}

// sortKeys sorts keys by (bits, idx) with an LSD radix sort over the eight
// bytes of bits. Each pass is stable and the input arrives in ascending idx
// order, so equal distances keep ascending idx without idx ever entering a
// key — no comparisons at all, unlike the generic sort whose per-comparison
// indirect call dominated New's profile. Passes whose byte is constant
// across the column (the high exponent bytes, after standardization) are
// skipped. Short columns fall through to insertion sort. Returns the sorted
// slice, which is whichever of sc.keys/sc.buf the final pass landed in.
func sortKeys(sc *radixScratch, n int) []rankKey {
	keys := sc.keys[:n]
	if n <= 32 {
		for i := 1; i < n; i++ {
			for j := i; j > 0 && keyLess(keys[j], keys[j-1]); j-- {
				keys[j], keys[j-1] = keys[j-1], keys[j]
			}
		}
		return keys
	}
	for p := range sc.hist {
		clear(sc.hist[p][:])
	}
	// One counting pass fills all eight histograms; the byte multiset per
	// position is permutation-invariant, so they stay valid for every pass.
	for i := range keys {
		b := keys[i].bits
		for p := 0; p < 8; p++ {
			sc.hist[p][(b>>(8*p))&0xff]++
		}
	}
	probe := keys[0].bits
	src, dst := keys, sc.buf[:n]
	for p := 0; p < 8; p++ {
		h := &sc.hist[p]
		if h[(probe>>(8*p))&0xff] == int32(n) {
			continue // every key shares this byte — nothing to move
		}
		// Exclusive prefix sum: h[c] becomes the first slot for byte c.
		start := int32(0)
		for c := 0; c < 256; c++ {
			cnt := h[c]
			h[c] = start
			start += cnt
		}
		for i := range src {
			c := (src[i].bits >> (8 * p)) & 0xff
			dst[h[c]] = src[i]
			h[c]++
		}
		src, dst = dst, src
	}
	return src
}

// buildColumn sorts test column j from scratch and seeds its recurrence.
func (e *Estimator) buildColumn(j int, sc *radixScratch) {
	n := e.kernel.Cols()
	keys := sc.keys[:n]
	for i := 0; i < n; i++ {
		keys[i] = rankKey{bits: math.Float64bits(e.kernel.At(i, j)), idx: int32(i)}
	}
	sorted := sortKeys(sc, n)
	ord := make([]int32, n, n+n/4+4)
	for r := range sorted {
		ord[r] = e.kernel.Phys(int(sorted[r].idx))
	}
	e.orders[j] = ord
	e.tvals[j] = make([]float64, n, cap(ord))
	e.recompute(j, 0)
}

// recompute refills tvals[j] from index max(from,1) on and refreshes
// s1[j]. Entries before from are untouched — the suffix-reuse invariant.
func (e *Estimator) recompute(j, from int) {
	ord := e.orders[j]
	t := e.tvals[j]
	n := len(ord)
	if n == 0 {
		e.s1[j] = 0
		return
	}
	ty := e.testLab[j]
	if from < 1 {
		t[0] = 0
		from = 1
	}
	kf := float64(e.k)
	for i := from; i < n; i++ {
		// d_i for the 1-based position pair (i, i+1): ranks i−1 and i.
		mi := e.match(ord[i-1], ty)
		mi1 := e.match(ord[i], ty)
		minK := kf
		if fi := float64(i); fi < minK {
			minK = fi
		}
		t[i] = t[i-1] + (mi-mi1)/kf*minK/float64(i)
	}
	// Base term: the farthest point enters the k-window only while the
	// coalition holds fewer than k others, so its value is
	// 1[match]/k · min(k,n)/n — which is 1[match]/max(n,k) in both regimes
	// (the familiar 1[match]/n only once n ≥ k).
	den := float64(n)
	if kf > den {
		den = kf
	}
	e.s1[j] = e.match(ord[n-1], ty)/den + t[n-1]
}

func (e *Estimator) match(p, ty int32) float64 {
	if e.physLab[p] == ty {
		return 1
	}
	return 0
}

// Add registers the points appended to the kernel at logical indices
// first..first+len(labels)−1. kernel must be the post-append view (it
// shares the receiver's physical buffer). Each column binary-inserts the
// new points and recomputes only the affected rank suffix.
func (e *Estimator) Add(kernel *dataset.DistanceKernel, first int, labels []int) {
	e.kernel = kernel
	for len(e.physLab) < kernel.PhysExtent() {
		e.physLab = append(e.physLab, 0)
	}
	phys := make([]int32, len(labels))
	for t, y := range labels {
		p := kernel.Phys(first + t)
		phys[t] = p
		e.physLab[p] = int32(y)
	}
	e.parallel(e.m, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			e.addColumn(j, phys)
		}
	})
	e.dirty = true
}

func (e *Estimator) addColumn(j int, phys []int32) {
	ord := e.orders[j]
	t := e.tvals[j]
	minR := len(ord) + len(phys)
	for _, p := range phys {
		d := e.kernel.AtPhys(p, j)
		// Upper bound: first rank strictly farther than d. The new point's
		// physical id exceeds every existing one, so landing after all
		// equal distances reproduces the stable sort's tie order.
		r := sort.Search(len(ord), func(i int) bool { return e.kernel.AtPhys(ord[i], j) > d })
		ord = append(ord, 0)
		copy(ord[r+1:], ord[r:])
		ord[r] = p
		t = append(t, 0)
		if r < minR {
			minR = r
		}
	}
	e.orders[j] = ord
	e.tvals[j] = t
	e.recompute(j, minR)
}

// Delete unregisters the training points backing the given physical
// columns (obtained via Phys on the PRE-delete view). kernel must be the
// post-delete view. Each column locates the doomed ranks by binary search
// on their (still readable) distances, compacts the order in one pass
// from the first affected rank, and recomputes the suffix.
func (e *Estimator) Delete(removed []int32, kernel *dataset.DistanceKernel) {
	e.kernel = kernel
	e.parallel(e.m, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			e.deleteColumn(j, removed)
		}
	})
	e.dirty = true
}

func (e *Estimator) deleteColumn(j int, removed []int32) {
	ord := e.orders[j]
	minR := len(ord)
	for _, q := range removed {
		d := e.kernel.AtPhys(q, j)
		r := sort.Search(len(ord), func(i int) bool { return e.kernel.AtPhys(ord[i], j) >= d })
		for ord[r] != q {
			r++ // walk the (rare) ties sharing the distance
		}
		copy(ord[r:], ord[r+1:])
		ord = ord[:len(ord)-1]
		if r < minR {
			minR = r
		}
	}
	e.orders[j] = ord
	e.tvals[j] = e.tvals[j][:len(ord)]
	e.recompute(j, minR)
}

// Values returns a copy of the exact Shapley values, logical-indexed to
// match the kernel's current columns, reducing the maintained per-column
// state first if an update left it stale.
func (e *Estimator) Values() []float64 {
	if e.dirty {
		e.reduce()
		e.dirty = false
	}
	return append([]float64(nil), e.sv...)
}

// reduce averages the per-test per-point values into sv in one serial
// pass: for each test column j in ascending order, every live point's
// per-test value s1[j] − t[r] is added into its physical id's slot of acc,
// then each logical point's slot is scaled by 1/m. Each point receives its
// m contributions in ascending test order, so the result does not depend
// on the worker count — and because the reduction always runs in full over
// maintained state that equals the from-scratch state, the published
// values are exactly the from-scratch values.
func (e *Estimator) reduce() {
	n := e.kernel.Cols()
	if cap(e.sv) < n {
		e.sv = make([]float64, n)
	}
	e.sv = e.sv[:n]
	if n == 0 {
		return
	}
	if e.m == 0 {
		clear(e.sv)
		return
	}
	ext := e.kernel.PhysExtent()
	if cap(e.acc) < ext {
		e.acc = make([]float64, 0, ext+ext/4+4)
	}
	acc := e.acc[:ext]
	clear(acc)
	for j, ord := range e.orders {
		s1 := e.s1[j]
		t := e.tvals[j][:len(ord)]
		for r, p := range ord {
			acc[p] += s1 - t[r]
		}
	}
	inv := 1 / float64(e.m)
	for i := range e.sv {
		e.sv[i] = acc[e.kernel.Phys(i)] * inv
	}
}

// Clone returns a deep copy sharing only immutable data (the kernel view
// and test labels). It has no production caller — the session's writer
// owns its estimator and mutates it in place — and is kept only because
// the benchmark harness's shadow replay (perfbench/trace.go) calls it.
func (e *Estimator) Clone() *Estimator {
	c := *e
	c.physLab = append([]int32(nil), e.physLab...)
	c.s1 = append([]float64(nil), e.s1...)
	c.sv = append([]float64(nil), e.sv...)
	c.acc = nil
	c.orders = make([][]int32, e.m)
	c.tvals = make([][]float64, e.m)
	for j := range e.orders {
		n := len(e.orders[j])
		c.orders[j] = append(make([]int32, 0, n+n/4+4), e.orders[j]...)
		c.tvals[j] = append(make([]float64, 0, cap(c.orders[j])), e.tvals[j]...)
	}
	return &c
}

// N returns the number of training points currently maintained.
func (e *Estimator) N() int { return e.kernel.Cols() }

// K returns the neighbour count the values are exact for.
func (e *Estimator) K() int { return e.k }

// M returns the number of test points.
func (e *Estimator) M() int { return e.m }

// MemoryBytes reports the estimator's own heap footprint (the kernel is
// accounted separately by its owner).
func (e *Estimator) MemoryBytes() int64 {
	var b int64
	for j := range e.orders {
		b += int64(cap(e.orders[j]))*4 + int64(cap(e.tvals[j]))*8
	}
	return b + int64(len(e.physLab))*4 + int64(len(e.testLab))*4 +
		int64(cap(e.s1))*8 + int64(cap(e.sv))*8 + int64(cap(e.acc))*8
}

// parallel splits [0,n) into contiguous blocks across the estimator's
// workers. Every block writes disjoint state, so scheduling never affects
// results. Small inputs run serially — goroutine startup would dominate.
func (e *Estimator) parallel(n int, f func(lo, hi int)) {
	workers := e.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if n < 64 {
		workers = 1
	}
	if workers <= 1 {
		f(0, n)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
