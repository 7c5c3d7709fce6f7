// Package semivalue defines the pluggable weighting layer behind the
// permutation engine: a Weighting names a semivalue — Shapley, Beta(α,β)
// (Kwon & Zou), Banzhaf, or Absolute Shapley — as a per-subset-size
// coefficient p_n(k) plus an optional transform applied to each marginal
// contribution (|·| for Absolute Shapley, arXiv 2003.10076).
//
// Every semivalue of a player i has the form
//
//	φ_i = Σ_{k=0}^{n−1} p_n(k) · Σ_{|S|=k, S ⊆ N∖{i}} T(U(S∪{i}) − U(S))
//
// with T the marginal transform and Σ_k C(n−1,k)·p_n(k) = 1. A uniform
// random permutation observes, at position pos, a uniformly drawn size-pos
// prefix, so the same walk prices any semivalue by re-weighting the
// observed marginal with the position coefficient
//
//	ω_n(pos) = n · C(n−1,pos) · p_n(k=pos),
//
// which is identically 1 for Shapley — the engine's historic accumulation.
// The package also derives the differential coefficient tables the
// dynamic-update walks (the single-point delta addition and deletion) need
// to carry non-Shapley heads; see AddCoeffs and DeleteCoeffs.
package semivalue

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// kind enumerates the supported weighting families.
type kind int

const (
	kindShapley kind = iota
	kindBanzhaf
	kindBeta
	kindAbsShapley
)

// Weighting identifies one semivalue head: a subset-size weighting family
// (plus the Beta family's parameters) and the marginal transform. The zero
// value is the Shapley weighting. Weightings are comparable values; two
// heads are the same iff their Keys are equal.
type Weighting struct {
	k           kind
	alpha, beta float64
}

// Shapley returns the Shapley weighting: p_n(k) = 1/(n·C(n−1,k)), the
// uniform-over-positions average every permutation walk accumulates natively.
func Shapley() Weighting { return Weighting{} }

// Banzhaf returns the Banzhaf weighting: every subset weighs 2^{1−n}.
func Banzhaf() Weighting { return Weighting{k: kindBanzhaf} }

// Beta returns the Beta(α,β) weighting of Kwon & Zou:
// p_n(k) = B(k+β, n−k−1+α) / B(α,β). Beta(1,1) is exactly the Shapley
// weighting; α > 1 emphasises small coalitions, β > 1 large ones. It
// panics unless α > 0 and β > 0.
func Beta(alpha, beta float64) Weighting {
	if !(alpha > 0) || !(beta > 0) {
		panic(fmt.Sprintf("semivalue: Beta parameters must be positive, got (%g, %g)", alpha, beta))
	}
	return Weighting{k: kindBeta, alpha: alpha, beta: beta}
}

// AbsoluteShapley returns the Absolute Shapley weighting (arXiv
// 2003.10076): Shapley's subset weights applied to |marginal| instead of
// the signed marginal, so detrimental and beneficial contributions both
// count positively.
func AbsoluteShapley() Weighting { return Weighting{k: kindAbsShapley} }

// Key returns the weighting's canonical wire name, stable across releases:
// "shapley", "banzhaf", "beta(α,β)", "abs-shapley". Parse inverts it.
func (w Weighting) Key() string {
	switch w.k {
	case kindBanzhaf:
		return "banzhaf"
	case kindBeta:
		return fmt.Sprintf("beta(%g,%g)", w.alpha, w.beta)
	case kindAbsShapley:
		return "abs-shapley"
	default:
		return "shapley"
	}
}

// String returns the canonical name (same as Key).
func (w Weighting) String() string { return w.Key() }

// IsShapley reports whether w is exactly the Shapley weighting — the head
// the engine's unweighted accumulation already produces. Beta(1,1) is
// mathematically Shapley but reports false: its coefficients come from the
// Beta formulas and are not the bit-exact constant 1.
func (w Weighting) IsShapley() bool { return w.k == kindShapley }

// Abs reports whether the weighting applies the |·| transform to each
// marginal. Heads with Abs true cannot be recovered from the YN-NN
// deletion stores: the stored quantities are sums of signed utilities,
// and |·| does not distribute over sums.
func (w Weighting) Abs() bool { return w.k == kindAbsShapley }

// Linear reports whether the head is linear in the marginals (no
// transform), i.e. recoverable from linear utility aggregates such as the
// deletion stores.
func (w Weighting) Linear() bool { return !w.Abs() }

// Parse resolves a wire name produced by Key (case-insensitive; spaces
// ignored). Accepted spellings: "shapley", "banzhaf", "beta(α,β)", and
// "abs-shapley" (also "absolute-shapley", "abs_shapley").
func Parse(s string) (Weighting, error) {
	name := strings.ToLower(strings.ReplaceAll(strings.TrimSpace(s), " ", ""))
	switch name {
	case "shapley":
		return Shapley(), nil
	case "banzhaf":
		return Banzhaf(), nil
	case "abs-shapley", "abs_shapley", "absolute-shapley", "absoluteshapley":
		return AbsoluteShapley(), nil
	}
	if args, ok := strings.CutPrefix(name, "beta("); ok && strings.HasSuffix(args, ")") {
		parts := strings.Split(strings.TrimSuffix(args, ")"), ",")
		if len(parts) == 2 {
			a, errA := strconv.ParseFloat(parts[0], 64)
			b, errB := strconv.ParseFloat(parts[1], 64)
			if errA == nil && errB == nil && a > 0 && b > 0 {
				return Beta(a, b), nil
			}
		}
		return Weighting{}, fmt.Errorf("semivalue: malformed beta weighting %q, want beta(α,β) with α, β > 0", s)
	}
	return Weighting{}, fmt.Errorf("semivalue: unknown weighting %q (want shapley, banzhaf, beta(α,β) or abs-shapley)", s)
}

// Transform applies the weighting's marginal transform.
func (w Weighting) Transform(m float64) float64 {
	if w.Abs() {
		return math.Abs(m)
	}
	return m
}

// logChoose returns ln C(n, k) via lgamma, valid far past float64's
// binomial overflow point.
func logChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	ln, _ := math.Lgamma(float64(n) + 1)
	lk, _ := math.Lgamma(float64(k) + 1)
	lnk, _ := math.Lgamma(float64(n-k) + 1)
	return ln - lk - lnk
}

// logBeta returns ln B(a, b).
func logBeta(a, b float64) float64 {
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	return la + lb - lab
}

// logSubsetWeight returns ln p_n(k): the log of the weight an n-player
// game's semivalue places on each individual size-k subset, k ∈ [0, n−1].
func (w Weighting) logSubsetWeight(n, k int) float64 {
	switch w.k {
	case kindBanzhaf:
		return -float64(n-1) * math.Ln2
	case kindBeta:
		return logBeta(float64(k)+w.beta, float64(n-k-1)+w.alpha) - logBeta(w.alpha, w.beta)
	default: // Shapley and Absolute Shapley
		return -math.Log(float64(n)) - logChoose(n-1, k)
	}
}

// SubsetWeights returns p_n(k) for k = 0..n−1 — the per-subset
// coefficients exact enumeration folds against. The Shapley table is built
// by the historic recurrence of core.Exact (w[0] = 1/n, w[k] =
// w[k−1]·k/(n−k)), so enumerating with it reproduces the pre-semivalue
// output bit for bit; Banzhaf's 2^{1−n} is exact for any enumerable n.
func (w Weighting) SubsetWeights(n int) []float64 {
	if n <= 0 {
		return nil
	}
	out := make([]float64, n)
	switch w.k {
	case kindBanzhaf:
		out[0] = 1 / float64(uint64(1)<<uint(n-1)) // n ≤ MaxExactPlayers « 64
		for k := 1; k < n; k++ {
			out[k] = out[0]
		}
	case kindBeta:
		lb := logBeta(w.alpha, w.beta)
		for k := 0; k < n; k++ {
			out[k] = math.Exp(logBeta(float64(k)+w.beta, float64(n-k-1)+w.alpha) - lb)
		}
	default: // Shapley and Absolute Shapley: the historic recurrence.
		out[0] = 1 / float64(n)
		for k := 1; k < n; k++ {
			out[k] = out[k-1] * float64(k) / float64(n-k)
		}
	}
	return out
}

// PosWeights returns ω_n(pos) = n·C(n−1,pos)·p_n(pos) for pos = 0..n−1:
// the coefficient a full permutation walk multiplies the marginal observed
// at position pos by. Shapley's table is exactly all ones (by definition,
// not by floating-point accident), so a Shapley head folded through these
// weights reproduces the engine's native accumulation.
func (w Weighting) PosWeights(n int) []float64 {
	if n <= 0 {
		return nil
	}
	out := make([]float64, n)
	switch w.k {
	case kindShapley, kindAbsShapley:
		for pos := range out {
			out[pos] = 1
		}
	default:
		ln := math.Log(float64(n))
		for pos := 0; pos < n; pos++ {
			out[pos] = math.Exp(ln + logChoose(n-1, pos) + w.logSubsetWeight(n, pos))
		}
	}
	return out
}

// AddCoeffs returns the differential tables an insertion walk (delta
// addition: n-player base game growing to n+1 players) folds the head with:
//
//   - cNo[pos], cWith[pos] for pos = 0..n−1: an old player observed at
//     position pos with pivot-free marginal mNo and pivot-included marginal
//     mWith contributes cNo·T(mNo) + cWith·T(mWith) to its head CHANGE —
//     new = old + avg. cNo is a_h(pos) − ω_n(pos) with a_h(pos) =
//     n·C(n−1,pos)·p_{n+1}(pos) (the walk's estimate of the new game's
//     pivot-free strata minus the old-game value the base already holds)
//     and cWith = n·C(n−1,pos)·p_{n+1}(pos+1) prices the pivot-containing
//     strata the old game never had.
//   - wNew[k] for k = 0..n: the pivot's own head value is the per-walk sum
//     Σ_k wNew[k]·T(d_k) averaged over walks, d_k the pivot's marginal on
//     the size-k prefix, wNew[k] = C(n,k)·p_{n+1}(k).
//
// For Shapley the closed forms cNo = −(pos+1)/(n+1), cWith = (pos+1)/(n+1),
// wNew = 1/(n+1) are returned directly — the historic delta-addition fold
// dmc·(pos+1)/(n+1) is exactly cNo·mNo + cWith·mWith.
func (w Weighting) AddCoeffs(n int) (cNo, cWith, wNew []float64) {
	cNo = make([]float64, n)
	cWith = make([]float64, n)
	wNew = make([]float64, n+1)
	if w.k == kindShapley || w.k == kindAbsShapley {
		for pos := 0; pos < n; pos++ {
			c := float64(pos+1) / float64(n+1)
			cNo[pos] = -c
			cWith[pos] = c
		}
		for k := 0; k <= n; k++ {
			wNew[k] = 1 / float64(n+1)
		}
		return cNo, cWith, wNew
	}
	ln := math.Log(float64(n))
	omega := w.PosWeights(n)
	for pos := 0; pos < n; pos++ {
		base := ln + logChoose(n-1, pos)
		cNo[pos] = math.Exp(base+w.logSubsetWeight(n+1, pos)) - omega[pos]
		cWith[pos] = math.Exp(base + w.logSubsetWeight(n+1, pos+1))
	}
	for k := 0; k <= n; k++ {
		wNew[k] = math.Exp(logChoose(n, k) + w.logSubsetWeight(n+1, k))
	}
	return cNo, cWith, wNew
}

// DeleteCoeffs returns the differential tables a deletion walk
// (delta deletion: n-player game shrinking to n−1 survivors) folds the head
// with: a survivor observed at position pos of the survivor walk, with
// pivot-free marginal mNo and pivot-included marginal mWith, contributes
// cNo[pos]·T(mNo) + cWith[pos]·T(mWith) to its head change. cNo =
// ω_{n−1}(pos) − (n−1)·C(n−2,pos)·p_n(pos) re-prices the pivot-free
// strata from the old game's weights to the survivor game's; cWith =
// −(n−1)·C(n−2,pos)·p_n(pos+1) removes the strata that contained the
// deleted point. For Shapley: cNo = (pos+1)/n, cWith = −(pos+1)/n — the
// historic −dmc·(pos+1)/n fold.
func (w Weighting) DeleteCoeffs(n int) (cNo, cWith []float64) {
	if n < 2 {
		return nil, nil
	}
	cNo = make([]float64, n-1)
	cWith = make([]float64, n-1)
	if w.k == kindShapley || w.k == kindAbsShapley {
		for pos := 0; pos < n-1; pos++ {
			c := float64(pos+1) / float64(n)
			cNo[pos] = c
			cWith[pos] = -c
		}
		return cNo, cWith
	}
	omega := w.PosWeights(n - 1)
	ln1 := math.Log(float64(n - 1))
	for pos := 0; pos < n-1; pos++ {
		base := ln1 + logChoose(n-2, pos)
		cNo[pos] = omega[pos] - math.Exp(base+w.logSubsetWeight(n, pos))
		cWith[pos] = -math.Exp(base + w.logSubsetWeight(n, pos+1))
	}
	return cNo, cWith
}

// MergeCoeffs returns the per-k coefficients recovering the head's
// post-deletion values from a YN-NN deletion store filled over an n-player
// game: out[i] = Σ_{k=1}^{n−1} coef[k]·(YN[i][p][k] − NN[i][p][k−1]).
// The difference isolates the survivor game's size-(k−1) strata, so any
// LINEAR head re-weights it; exact stores hold the combinatorial sums
// (coef = p_{n−1}(k−1)), sampled stores hold permutation averages whose
// stratum hit-rate (n−k)/(n(n−1)) and subset count C(n−2,k−1) fold into
// the coefficient. It panics for Abs weightings — |·| does not distribute
// over the stored sums (callers gate on Linear).
func (w Weighting) MergeCoeffs(n int, exact bool) []float64 {
	if w.Abs() {
		panic("semivalue: MergeCoeffs on an absolute-transform weighting")
	}
	coef := make([]float64, n)
	if n < 2 {
		return coef
	}
	if exact {
		sw := w.SubsetWeights(n - 1)
		for k := 1; k <= n-1; k++ {
			coef[k] = sw[k-1]
		}
		return coef
	}
	lnn := math.Log(float64(n)) + math.Log(float64(n-1))
	for k := 1; k <= n-1; k++ {
		coef[k] = math.Exp(w.logSubsetWeight(n-1, k-1) + logChoose(n-2, k-1) + lnn - math.Log(float64(n-k)))
	}
	return coef
}

// Keys renders a weighting list as its canonical wire names.
func Keys(ws []Weighting) []string {
	if len(ws) == 0 {
		return nil
	}
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = w.Key()
	}
	return out
}

// ParseAll inverts Keys.
func ParseAll(names []string) ([]Weighting, error) {
	if len(names) == 0 {
		return nil, nil
	}
	out := make([]Weighting, len(names))
	for i, s := range names {
		w, err := Parse(s)
		if err != nil {
			return nil, err
		}
		out[i] = w
	}
	return out, nil
}
