package dynshap

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"dynshap/internal/dataset"
	"dynshap/internal/rng"
)

// softFixture builds a standardized two-Gaussian train/test pair of n and
// m points for SoftKNNClassifier sessions, plus a disjoint pool of points
// to add.
func softFixture(n, m int, seed uint64) (train, test, src *Dataset) {
	pool := dataset.TwoGaussians(rng.New(seed), n+m+64, 6, 3)
	pool.Standardize()
	return pool.Subset(seq(0, n)), pool.Subset(seq(n, n+m)), pool.Subset(seq(n+m, n+m+64))
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// sameBits reports whether two value vectors are bitwise equal.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// assertExactInSync checks the writer-owned estimator against a
// from-scratch build over the published state: same values, bit for bit.
func assertExactInSync(t *testing.T, s *Session, when string) {
	t.Helper()
	st := s.state.Load()
	if st.exact == nil {
		t.Fatalf("%s: session lost its exact estimator", when)
	}
	if got, want := st.exact.Values(), s.buildExact(st).Values(); !sameBits(got, want) {
		t.Fatalf("%s: maintained estimator diverged from a rebuild over the published state", when)
	}
}

// twinRun drives a session and its twin — a fresh session with the same
// configuration that is fed only the operations that succeed — and
// demands that both publish bitwise-equal results.
type twinRun struct {
	t         *testing.T
	s, twin   *Session
	src       *Dataset
	next, del int
}

func newTwinRun(t *testing.T, opts ...Option) *twinRun {
	train, test, src := softFixture(40, 24, 61)
	mk := func() *Session {
		s := NewSession(train, test, SoftKNNClassifier{K: 5},
			append([]Option{WithSeed(4), WithSamples(40), WithUpdateSamples(20)}, opts...)...)
		if err := s.Init(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	return &twinRun{t: t, s: mk(), twin: mk(), src: src}
}

// fail runs an operation that must be refused, then checks that it left
// no trace: same version, same values, estimator still in sync.
func (r *twinRun) fail(name string, want error, op func(s *Session) error) {
	r.t.Helper()
	ver, vals := r.s.Version(), r.s.Values()
	err := op(r.s)
	if err == nil {
		r.t.Fatalf("%s: succeeded, want an error", name)
	}
	if want != nil && !errors.Is(err, want) {
		r.t.Fatalf("%s: error %v, want %v", name, err, want)
	}
	if r.s.Version() != ver || !sameBits(r.s.Values(), vals) {
		r.t.Fatalf("%s: the refused update changed the published state", name)
	}
	assertExactInSync(r.t, r.s, name)
}

// add appends the next source point with algo on both sessions.
func (r *twinRun) add(name string, algo Algorithm) {
	r.t.Helper()
	pt := []Point{r.src.Points[r.next%r.src.Len()].Clone()}
	r.next++
	got, gu, err := r.s.addJournaled(pt, algo, false)
	if err != nil {
		r.t.Fatalf("%s: add: %v", name, err)
	}
	want, wu, err := r.twin.addJournaled(pt, algo, false)
	if err != nil {
		r.t.Fatalf("%s: twin add: %v", name, err)
	}
	if !sameBits(got, want) || !sameBits(gu.BatchValues, wu.BatchValues) {
		r.t.Fatalf("%s: %v add after a refused update differs from the twin", name, algo)
	}
}

// remove deletes one interior point with algo on both sessions.
func (r *twinRun) remove(name string, algo Algorithm) {
	r.t.Helper()
	idx := []int{(7 * r.del) % r.s.N()}
	r.del++
	got, gu, err := r.s.deleteJournaled(idx, algo, false)
	if err != nil {
		r.t.Fatalf("%s: delete: %v", name, err)
	}
	want, wu, err := r.twin.deleteJournaled(idx, algo, false)
	if err != nil {
		r.t.Fatalf("%s: twin delete: %v", name, err)
	}
	if !sameBits(got, want) || !sameBits(gu.RemovedValues, wu.RemovedValues) {
		r.t.Fatalf("%s: %v delete after a refused update differs from the twin", name, algo)
	}
}

// agree checks Values and ReplayTo(last) against the twin.
func (r *twinRun) agree(name string) {
	r.t.Helper()
	if r.s.Version() != r.twin.Version() || !sameBits(r.s.Values(), r.twin.Values()) {
		r.t.Fatalf("%s: values differ from the twin", name)
	}
	rs, err := r.s.ReplayTo(r.s.Version())
	if err != nil {
		r.t.Fatalf("%s: ReplayTo: %v", name, err)
	}
	if !sameBits(rs.Values(), r.twin.Values()) {
		r.t.Fatalf("%s: ReplayTo(last) differs from the twin", name)
	}
	assertExactInSync(r.t, r.s, name)
}

// TestExactFailedUpdatesLeaveEstimatorIntact is the failure-atomicity gate
// for the writer-owned exact estimator. Every update shares one estimator
// instance and mutates it in place, so a refused update must not reach it.
// After each explicit-algorithm error path, the next exact add and delete,
// Values and ReplayTo(last) must be bit-identical to a twin session fed
// only the successful operations.
func TestExactFailedUpdatesLeaveEstimatorIntact(t *testing.T) {
	r := newTwinRun(t)
	one := func() []Point { return []Point{r.src.Points[0].Clone()} }
	refusals := []struct {
		name string
		want error
		op   func(s *Session) error
	}{
		{"stale YN-NN stores", ErrStaleStores, func(s *Session) error {
			_, err := s.Delete([]int{3}, AlgoYNNN)
			return err
		}},
		{"delete index out of range", nil, func(s *Session) error {
			_, err := s.Delete([]int{2, s.N()}, AlgoExactKNN)
			return err
		}},
		{"negative delete index", nil, func(s *Session) error {
			_, err := s.Delete([]int{-1}, AlgoExactKNN)
			return err
		}},
		{"duplicate delete index", nil, func(s *Session) error {
			_, err := s.Delete([]int{5, 1, 5}, AlgoExactKNN)
			return err
		}},
		{"add algorithm without additions", nil, func(s *Session) error {
			_, err := s.Add(one(), AlgoYNNN)
			return err
		}},
		{"delete algorithm without deletions", nil, func(s *Session) error {
			_, err := s.Delete([]int{1}, AlgoPivotDifferent)
			return err
		}},
		{"pivot add without stored permutations", ErrNotInitialized, func(s *Session) error {
			_, err := s.Add(one(), AlgoPivotSameBatch)
			return err
		}},
	}
	for _, f := range refusals {
		r.fail(f.name, f.want, f.op)
		r.add(f.name, AlgoExactKNN)
		r.remove(f.name, AlgoExactKNN)
		r.agree(f.name)
		// A sampled update maintains the estimator too; the next exact
		// update must still see the right state.
		r.add(f.name, AlgoDelta)
		r.agree(f.name)
	}

	// checkHeads refusals need a head-carrying session, where the exact
	// path is itself refused: the estimator is checked directly against a
	// rebuild, and the head-capable Delta updates against the twin.
	h := newTwinRun(t, WithSemivalues(Banzhaf()))
	for _, algo := range []Algorithm{AlgoExactKNN, AlgoPivotSameBatch} {
		name := "heads refuse " + algo.String()
		h.fail(name+" add", nil, func(s *Session) error {
			_, err := s.Add(one(), algo)
			return err
		})
		h.fail(name+" delete", nil, func(s *Session) error {
			_, err := s.Delete([]int{2}, algo)
			return err
		})
		h.add(name, AlgoDelta)
		h.remove(name, AlgoDelta)
		h.agree(name)
	}
}

// exactUpdateBytes returns the mean heap bytes allocated per exact
// Session.Add and per exact Session.Delete on a SoftKNNClassifier session
// of n training and m test points, over a fixed churn loop: each iteration
// adds one point and deletes one, so n holds steady.
func exactUpdateBytes(t *testing.T, n, m, iters int) (add, del float64) {
	t.Helper()
	train, test, src := softFixture(n, m, 71)
	s := NewSession(train, test, SoftKNNClassifier{K: 5}, WithSeed(5), WithWorkers(1))
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	var addBytes, delBytes uint64
	for i := 0; i < iters; i++ {
		pt := []Point{src.Points[i%src.Len()].Clone()}
		runtime.ReadMemStats(&before)
		if _, err := s.Add(pt, AlgoExactKNN); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		addBytes += after.TotalAlloc - before.TotalAlloc
		idx := []int{(i * 37) % s.N()}
		runtime.ReadMemStats(&before)
		if _, err := s.Delete(idx, AlgoExactKNN); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		delBytes += after.TotalAlloc - before.TotalAlloc
	}
	return float64(addBytes) / float64(iters), float64(delBytes) / float64(iters)
}

// TestExactUpdateAllocations is the allocation gate for exact updates at
// n = 1000: an Add or a Delete allocates under 256 KB, and the per-update
// bytes do not scale with the test set — m = 250 costs under 1.5× what
// m = 50 costs. (A copy-on-write estimator would allocate its whole
// m·n state per update.) The 300-iteration loop runs past the distance
// kernel's spare capacity, so the amortised cost of its reallocation is
// included.
func TestExactUpdateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate: 10× slower under -race, and the figures are the same")
	}
	const n, iters, limit = 1000, 300, 256 << 10
	add50, del50 := exactUpdateBytes(t, n, 50, iters)
	add250, del250 := exactUpdateBytes(t, n, 250, iters)
	t.Logf("bytes/update at n=%d: add %.0f (m=50) %.0f (m=250); delete %.0f (m=50) %.0f (m=250)",
		n, add50, add250, del50, del250)
	for _, c := range []struct {
		name       string
		small, big float64
	}{{"Add", add50, add250}, {"Delete", del50, del250}} {
		if c.big > limit {
			t.Errorf("exact %s allocates %.0f bytes at m=250, limit %d", c.name, c.big, limit)
		}
		if c.big > 1.5*c.small {
			t.Errorf("exact %s allocates %.0f bytes at m=250, %.2f× the %.0f at m=50 (limit 1.5×)",
				c.name, c.big, c.big/c.small, c.small)
		}
	}
}
