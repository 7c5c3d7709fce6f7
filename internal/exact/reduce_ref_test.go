package exact

import (
	"math"
	"testing"

	"dynshap/internal/dataset"
	"dynshap/internal/rng"
)

// scatterGatherReduce is the reduction the estimator used before the
// serial accumulation: scatter every column's per-test contributions into
// a physical-id-major buffer (parallel over test columns), then gather each
// logical point's m contributions in ascending test order (parallel over
// point ranges). Kept here only as the bit-identity reference for reduce.
func scatterGatherReduce(e *Estimator) []float64 {
	n := e.kernel.Cols()
	sv := make([]float64, n)
	if n == 0 || e.m == 0 {
		return sv
	}
	m := e.m
	contrib := make([]float64, e.kernel.PhysExtent()*m)
	e.parallel(m, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			t := e.tvals[j]
			s1 := e.s1[j]
			for r, p := range e.orders[j] {
				contrib[int(p)*m+j] = s1 - t[r]
			}
		}
	})
	inv := 1 / float64(m)
	e.parallel(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			base := int(e.kernel.Phys(i)) * m
			acc := 0.0
			for j := 0; j < m; j++ {
				acc += contrib[base+j]
			}
			sv[i] = acc * inv
		}
	})
	return sv
}

func seq(lo, hi int) []int {
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

func labels(d *dataset.Dataset) []int {
	ys := make([]int, d.Len())
	for i, p := range d.Points {
		ys[i] = p.Y
	}
	return ys
}

// TestReduceMatchesScatterGather drives estimators at 1, 2 and 4 workers
// through the same 200-step add/delete sequence over tie-heavy data (40 of
// the 140 training points are duplicates, and live points are re-added
// mid-sequence) and
// demands that the serial accumulation equal the old two-phase
// scatter/gather bit for bit after every step, at every worker count.
// n and m stay above the parallel cut-over so the reference's phases
// really split across workers.
func TestReduceMatchesScatterGather(t *testing.T) {
	r := rng.New(91)
	pool := dataset.TwoGaussians(r, 170, 3, 1.5)
	// Duplicated training points put exact distance ties throughout every
	// sorted order.
	pts := append([]dataset.Point(nil), pool.Points[:100]...)
	for i := 0; i < 40; i++ {
		pts = append(pts, pool.Points[i].Clone())
	}
	train := dataset.New(pts)
	train.Classes = pool.Classes
	test := pool.Subset(seq(100, 170))
	src := dataset.TwoGaussians(rng.New(92), 80, 3, 1.5)

	workerCounts := []int{1, 2, 4}
	ests := make([]*Estimator, len(workerCounts))
	kernels := make([]*dataset.DistanceKernel, len(workerCounts))
	for w, workers := range workerCounts {
		kernels[w] = dataset.NewDistanceKernel(test, train, workers)
		ests[w] = New(kernels[w], labels(train), labels(test), 5, workers)
	}
	cur := train.Clone()
	for step := 0; step < 200; step++ {
		if cur.Len() > 80 && r.Float64() < 0.5 {
			idxs := r.Sample(cur.Len(), 1+r.Intn(3))
			for w := range ests {
				removed := make([]int32, len(idxs))
				for i, idx := range idxs {
					removed[i] = kernels[w].Phys(idx)
				}
				kernels[w] = kernels[w].Remove(idxs...)
				ests[w].Delete(removed, kernels[w])
			}
			cur = cur.Remove(idxs...)
		} else {
			cnt := 1 + r.Intn(3)
			pts := make([]dataset.Point, cnt)
			for i := range pts {
				if r.Float64() < 0.4 {
					pts[i] = cur.Points[r.Intn(cur.Len())].Clone() // exact tie
				} else {
					pts[i] = src.Points[r.Intn(src.Len())].Clone()
				}
			}
			ys := make([]int, cnt)
			for i, p := range pts {
				ys[i] = p.Y
			}
			first := cur.Len()
			for w := range ests {
				kernels[w] = kernels[w].Append(pts...)
				ests[w].Add(kernels[w], first, ys)
			}
			cur = cur.Append(pts...)
		}
		serial := ests[0].Values()
		for w, e := range ests {
			got := e.Values()
			want := scatterGatherReduce(e)
			if len(got) != cur.Len() || len(want) != cur.Len() {
				t.Fatalf("step %d workers=%d: %d values, reference %d, n=%d", step, workerCounts[w], len(got), len(want), cur.Len())
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("step %d workers=%d: sv[%d] = %v, scatter/gather %v", step, workerCounts[w], i, got[i], want[i])
				}
				if math.Float64bits(got[i]) != math.Float64bits(serial[i]) {
					t.Fatalf("step %d: sv[%d] = %v at %d workers, %v at 1", step, i, got[i], workerCounts[w], serial[i])
				}
			}
		}
	}
}
