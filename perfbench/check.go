package main

import (
	"fmt"
	"math"
	"path/filepath"
	"slices"

	"dynshap"
)

// Final is the server state the checks read after the timed window.
type Final struct {
	Version int
	Values  []float64
	History []dynshap.UpdateRecord
	RSSMB   float64
	Snap    *dynshap.Snapshot
}

// collectFinal flushes the session, reads its values and history, takes a
// snapshot, reads the peak RSS, and stops the server.
func collectFinal(s *server) (Final, error) {
	c := newClient(s.base)
	defer c.close()
	var f Final
	if err := c.do("POST", sessionPath+"/flush", nil, nil); err != nil {
		return f, err
	}
	var vals struct {
		Version int       `json:"version"`
		Values  []float64 `json:"values"`
	}
	if err := c.do("GET", sessionPath+"/values", nil, &vals); err != nil {
		return f, err
	}
	var hist struct {
		History []dynshap.UpdateRecord `json:"history"`
	}
	if err := c.do("GET", sessionPath+"/history", nil, &hist); err != nil {
		return f, err
	}
	var snap struct {
		Version int `json:"version"`
	}
	if err := c.do("POST", sessionPath+"/snapshot", nil, &snap); err != nil {
		return f, err
	}
	if snap.Version != vals.Version {
		return f, fmt.Errorf("snapshot version %d, values version %d", snap.Version, vals.Version)
	}
	rss, err := s.peakRSSMB()
	if err != nil {
		return f, err
	}
	if err := s.stop(); err != nil {
		return f, fmt.Errorf("stopping dynshapd: %w", err)
	}
	sn, err := dynshap.LoadSnapshot(filepath.Join(s.dataDir, sessionName+".snap.json"))
	if err != nil {
		return f, err
	}
	return Final{Version: vals.Version, Values: vals.Values, History: hist.History, RSSMB: rss, Snap: sn}, nil
}

func trainerOf(w Workload) dynshap.Trainer {
	if w.Model == "softknn" {
		return dynshap.SoftKNNClassifier{K: w.K}
	}
	return dynshap.KNNClassifier{K: w.K}
}

// Check outcomes. A failed check fails the run; none is a metric.
type Checks struct {
	Failures []string
	// Accuracy of the served values (delta-churn).
	RMSE       float64
	RefAgree   float64
	RefTau     int
	RefSeeds   [2]uint64
	ExactError float64
}

func (c *Checks) fail(format string, args ...any) {
	c.Failures = append(c.Failures, fmt.Sprintf(format, args...))
}

// Reference sampling for value_rmse: τ_ref permutations, seeds independent
// of every seed the session uses.
const refTau = 40000

func refSeeds(seed uint64) [2]uint64 { return [2]uint64{9000 + seed, 19000 + seed} }

// maxRMSE bounds value_rmse on the sampled workloads; the two reference
// seeds must agree within maxRefShare of that bound, so the check measures
// the served estimate and not the reference's own sampling error.
const (
	maxRMSE     = 0.01
	maxRefShare = 0.2
)

// runChecks verifies the final server state against the plan and the
// client's results.
func runChecks(c *Checks, p Plan, res []Result, f Final) {
	w := p.W

	// Final n: start plus successful adds minus the points successful
	// deletes removed.
	n := w.Train
	for i, op := range p.Ops {
		if res[i].Err != nil {
			continue
		}
		switch op.Kind {
		case OpAdd:
			n++
		case OpDelete:
			n -= len(op.Indices)
		}
	}
	if len(f.Values) != n || len(f.Snap.Train) != n {
		c.fail("final n: served %d values, snapshot %d points, want %d", len(f.Values), len(f.Snap.Train), n)
	}

	// Every write response joins to its journal record.
	byVersion := make(map[int]dynshap.UpdateRecord, len(f.History))
	for _, u := range f.History {
		byVersion[u.Version] = u
	}
	for i, op := range p.Ops {
		if res[i].Err != nil || (op.Kind != OpAdd && op.Kind != OpDelete) {
			continue
		}
		u, ok := byVersion[res[i].Version]
		if !ok || u.Op != op.Kind.String() {
			c.fail("op %d (%s) answered version %d with no matching journal record", i, op.Kind, res[i].Version)
			break
		}
	}

	// Workload identity: every update resolves inside the workload's family.
	for _, u := range f.History {
		if u.Op != "add" && u.Op != "delete" {
			continue
		}
		if !slices.Contains(w.Families, u.Algo) {
			c.fail("version %d (%s) ran %s, outside %v", u.Version, u.Op, u.Algo, w.Families)
			break
		}
		if w.Exact && (u.Trainings != 0 || u.PrefixAdds != 0) {
			c.fail("version %d: exact update cost %d trainings, %d prefix adds", u.Version, u.Trainings, u.PrefixAdds)
			break
		}
	}

	// Snapshot → Resume → ReplayTo reproduces the served values bit for bit.
	if err := checkReplay(w, f); err != nil {
		c.fail("replay: %v", err)
	}

	train := dynshap.NewDataset(f.Snap.Train)
	test := dynshap.NewDataset(f.Snap.Test)
	if w.Exact {
		want, err := dynshap.KNNShapley(train, test, w.K)
		if err != nil {
			c.fail("closed form: %v", err)
			return
		}
		for i := range want {
			c.ExactError = math.Max(c.ExactError, math.Abs(want[i]-f.Values[i]))
		}
		if !(c.ExactError <= 1e-12) {
			c.fail("served values differ from KNNShapley by %g > 1e-12", c.ExactError)
		}
		return
	}
	if len(f.Values) != n {
		return
	}
	g := dynshap.ModelGame(train, test, dynshap.KNNClassifier{K: w.K})
	c.RefTau, c.RefSeeds = refTau, refSeeds(p.Seed)
	ref := dynshap.MonteCarloShapleyParallel(g, refTau, 0, c.RefSeeds[0])
	ref2 := dynshap.MonteCarloShapleyParallel(g, refTau, 0, c.RefSeeds[1])
	c.RMSE = rmse(f.Values, ref)
	c.RefAgree = rmse(ref, ref2)
	if !(c.RMSE <= maxRMSE) {
		c.fail("value_rmse %g > %g", c.RMSE, maxRMSE)
	}
	if !(c.RefAgree <= maxRefShare*maxRMSE) {
		c.fail("reference seeds disagree by %g, more than %g of the value_rmse bound %g", c.RefAgree, maxRefShare, maxRMSE)
	}
}

func checkReplay(w Workload, f Final) error {
	if f.Snap.Version != f.Version {
		return fmt.Errorf("snapshot at version %d, served version %d", f.Snap.Version, f.Version)
	}
	s, err := f.Snap.Resume(trainerOf(w))
	if err != nil {
		return err
	}
	r, err := s.ReplayTo(f.Version)
	if err != nil {
		return err
	}
	got := r.Values()
	if len(got) != len(f.Values) {
		return fmt.Errorf("replayed %d values, served %d", len(got), len(f.Values))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(f.Values[i]) {
			return fmt.Errorf("value %d: replayed %v, served %v", i, got[i], f.Values[i])
		}
	}
	return nil
}
