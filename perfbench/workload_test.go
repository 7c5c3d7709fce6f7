package main

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

// defaultWindow matches run_seconds in BENCHMARK.json.
const defaultWindow = 45 * time.Second

func TestPlanIsAPureFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a := BuildPlan(w, 7, defaultWindow, 2)
		b := BuildPlan(w, 7, defaultWindow, 2)
		if !reflect.DeepEqual(a.Ops, b.Ops) || !reflect.DeepEqual(a.Train, b.Train) || !reflect.DeepEqual(a.Test, b.Test) {
			t.Errorf("%s: same seed gave different plans", w.Name)
		}
		c := BuildPlan(w, 8, defaultWindow, 2)
		if reflect.DeepEqual(a.Ops, c.Ops) {
			t.Errorf("%s: seeds 7 and 8 gave the same op stream", w.Name)
		}
	}
}

func TestScheduleIsOrderedAndInsideTheWindow(t *testing.T) {
	for _, w := range workloads {
		p := BuildPlan(w, 3, defaultWindow, 2)
		for i, op := range p.Ops {
			if op.Seq != i {
				t.Fatalf("%s: op %d has Seq %d", w.Name, i, op.Seq)
			}
			if op.Due < 0 || op.Due >= defaultWindow {
				t.Fatalf("%s: op %d due at %v, outside [0, %v)", w.Name, i, op.Due, defaultWindow)
			}
			if i > 0 && op.Due < p.Ops[i-1].Due {
				t.Fatalf("%s: op %d due before its predecessor", w.Name, i)
			}
		}
		c := p.Counts()
		if want := int(w.WriteRate*defaultWindow.Seconds()*w.WriteFrac + 0.5); c[OpAdd]+c[OpDelete] != want {
			t.Errorf("%s: %d writes, want %d", w.Name, c[OpAdd]+c[OpDelete], want)
		}
	}
}

// TestDeleteIndicesAlwaysValid replays each plan's writes in stream order
// and checks every delete against the smallest n the server can hold when
// it admits the delete: up to conns−1 other requests are in flight, and
// each may be a delete of DeleteSize points admitted first, or an earlier
// add not admitted yet.
func TestDeleteIndicesAlwaysValid(t *testing.T) {
	for _, w := range workloads {
		for _, conns := range []int{1, 2, 4} {
			p := BuildPlan(w, 11, defaultWindow, conns)
			n := w.Train
			for _, op := range p.Ops {
				switch op.Kind {
				case OpAdd:
					n++
				case OpDelete:
					low := n - w.DeleteSize*(conns-1)
					seen := map[int]bool{}
					for _, i := range op.Indices {
						if i < 0 || i >= low || seen[i] {
							t.Fatalf("%s conns=%d: delete %v invalid at n≥%d", w.Name, conns, op.Indices, low)
						}
						seen[i] = true
					}
					if len(op.Indices) != w.DeleteSize {
						t.Fatalf("%s: delete of %d points, want %d", w.Name, len(op.Indices), w.DeleteSize)
					}
					n -= len(op.Indices)
				}
			}
		}
	}
}

func TestNStaysNearItsStart(t *testing.T) {
	for _, w := range workloads {
		p := BuildPlan(w, 5, defaultWindow, 2)
		n := w.Train
		for _, op := range p.Ops {
			switch op.Kind {
			case OpAdd:
				n++
			case OpDelete:
				n -= len(op.Indices)
			}
			if n < w.Train-w.DeleteSize || n > w.Train+w.DeleteSize {
				t.Fatalf("%s: n drifted to %d from %d", w.Name, n, w.Train)
			}
		}
	}
}

// minSamples is the smallest sample count at which the p-quantile has
// minBeyond samples beyond it.
func minSamples(p float64) int {
	for n := minBeyond; ; n++ {
		if percentile(make([]float64, n), p).OK() {
			return n
		}
	}
}

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		p    float64
		want int
	}{{0.5, 20}, {0.9, 100}, {0.98, 500}, {0.99, 1000}} {
		if got := minSamples(c.p); got != c.want {
			t.Errorf("minSamples(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i)
	}
	q := percentile(xs, 0.99)
	if q.Value != 990 || q.Beyond != 10 || !q.OK() {
		t.Errorf("p99 of 1..1000 = %+v, want value 990 with 10 beyond", q)
	}
	if q := percentile(xs[:999], 0.99); q.OK() {
		t.Errorf("p99 of 999 samples passed the rule: %+v", q)
	}
}

// TestRecordedRatesGiveEnoughSamples checks that at the recorded rates
// every reported percentile has minBeyond samples beyond it.
func TestRecordedRatesGiveEnoughSamples(t *testing.T) {
	for _, w := range workloads {
		c := BuildPlan(w, 1, defaultWindow, 2).Counts()
		for _, q := range reported {
			if n := c[q.kind]; n < minSamples(q.p) {
				t.Errorf("%s: %s has %d samples, too few", w.Name, q.name, n)
			}
		}
	}
}

// recorder is a fake executor that records which ops it ran.
type recorder struct {
	mu   sync.Mutex
	seen map[int]int
}

func (r *recorder) Exec(op *Op) (opResponse, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seen[op.Seq]++
	return opResponse{Version: op.Seq}, nil
}

func TestOpenLoopRunsEveryOpOnceNoEarlierThanDue(t *testing.T) {
	w, err := workloadByName("exact-reads")
	if err != nil {
		t.Fatal(err)
	}
	p := BuildPlan(w, 1, 400*time.Millisecond, 2)
	rec := &recorder{seen: map[int]int{}}
	pools := [][]Executor{{rec, rec}, {rec}}
	res, late := runOpenLoop(p, pools)
	if len(res) != len(p.Ops) || len(late) != len(p.Ops) {
		t.Fatalf("got %d results and %d lateness samples for %d ops", len(res), len(late), len(p.Ops))
	}
	for i, op := range p.Ops {
		if rec.seen[i] != 1 {
			t.Fatalf("op %d ran %d times", i, rec.seen[i])
		}
		if res[i].Version != i || res[i].Sent < op.Due || res[i].Latency < 0 || late[i] < 0 {
			t.Fatalf("op %d: result %+v, lateness %v ms, due %v", i, res[i], late[i], op.Due)
		}
	}
}
