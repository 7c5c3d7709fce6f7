package dynshap

import (
	"path/filepath"
	"testing"
)

// The testdata/replay_*_v2.json snapshots were written by an earlier
// release whose single-point delta and Pivot-s updates ran their own walks
// (since folded into the batch engine at k = 1). Replaying their journals
// under the current code must land on the stored values bit for bit, and
// must reproduce every record's algorithm and cost accounting — this is
// what keeps old journals replayable across the change of walk.
func TestReplayFixturesFromEarlierRelease(t *testing.T) {
	cases := []struct {
		file  string
		heads []Semivalue
		// earlyStop requires at least one journaled update that the
		// adaptive stop ended below the update budget.
		earlyStop bool
	}{
		// WithTargetError: single-point Delta adds and deletes plus one
		// three-index Delta delete, most ending early.
		{file: "replay_delta_v2.json", earlyStop: true},
		// WithKeepPermutations: a three-point and a one-point Pivot-s add.
		{file: "replay_pivot_same_v2.json"},
		// A Banzhaf head riding single-point Delta deletes, an add and a
		// two-index Delta delete (applied as two single-point steps).
		{file: "replay_banzhaf_delta_v2.json", heads: []Semivalue{Banzhaf()}},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			sn, err := LoadSnapshot(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			if sn.Format != 2 || sn.Journal == nil || len(sn.Journal.Entries) == 0 {
				t.Fatalf("fixture is not a journaled format-2 snapshot")
			}
			s, err := sn.Resume(KNNClassifier{K: 3})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := s.ReplayTo(s.Version())
			if err != nil {
				t.Fatal(err)
			}
			bitEqualF(t, "replayed values", rep.Values(), sn.Values)
			shap, err := rep.ValuesFor(Shapley())
			if err != nil {
				t.Fatal(err)
			}
			bitEqualF(t, "replayed Shapley head", shap, sn.Values)
			for _, w := range tc.heads {
				got, err := rep.ValuesFor(w)
				if err != nil {
					t.Fatal(err)
				}
				want := sn.Heads[w.Key()]
				if len(want) == 0 {
					t.Fatalf("fixture stores no %v head", w)
				}
				bitEqualF(t, "replayed "+w.String()+" head", got, want)
			}

			stored, replayed := sn.Journal.Entries, rep.History()
			if len(replayed) != len(stored) {
				t.Fatalf("replay journaled %d records, fixture has %d", len(replayed), len(stored))
			}
			stopped := false
			for i, u := range stored {
				r := replayed[i]
				if r.Op != u.Op || r.Algo != u.Algo || r.Permutations != u.Permutations ||
					r.Trainings != u.Trainings || r.PrefixAdds != u.PrefixAdds {
					t.Fatalf("v%d: replayed %s/%s perms=%d trainings=%d prefix=%d, stored %s/%s perms=%d trainings=%d prefix=%d",
						u.Version, r.Op, r.Algo, r.Permutations, r.Trainings, r.PrefixAdds,
						u.Op, u.Algo, u.Permutations, u.Trainings, u.PrefixAdds)
				}
				budget := sn.Config.UpdateSamples * len(u.Indices)
				if u.Op == "add" {
					budget = sn.Config.UpdateSamples * len(u.Points)
				}
				if u.Algo == "Delta" && u.Permutations < budget {
					stopped = true
				}
			}
			if tc.earlyStop && !stopped {
				t.Fatal("fixture records no early-stopped delta update; it no longer exercises the adaptive stop")
			}
		})
	}
}
