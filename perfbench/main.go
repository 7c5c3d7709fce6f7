// Command perfbench is the repository's end-to-end benchmark. It launches
// the real dynshapd binary with persistence on, drives one session with a
// seeded open-loop op stream over loopback HTTP/1.1, checks the served
// values after the timed window, and prints every metric by name.
//
// Usage (from the repository root, through the wrapper that builds both
// binaries):
//
//	bash perfbench/run.sh --workload delta-churn --seed 1 --seconds 45 --trace 0
//
// With --trace 1 it also replays the same op stream in-process, timing
// the calls into each layer, and reports the per-layer metrics instead of
// the end-to-end ones. See README.md for the layer → metric → workload map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupRepeats is how many timed times a run launches dynshapd and
// creates the session: half before the timed window, after one untimed
// launch that warms the page cache and the binary (the last of them
// serves the traffic), and half after it. Launches are setupGap apart and
// setup_s is their median. A shared host's speed changes by up to a third
// from one half-second to the next and drifts over tens of seconds, so a
// single burst of launches would sample one moment of it.
const setupRepeats = 16

const setupGap = 100 * time.Millisecond

// maxLateMS bounds the generator's p99 lateness: a run whose dispatcher
// fell further behind its schedule did not offer the load it claims.
const maxLateMS = 20

func main() {
	name := flag.String("workload", "", "workload name: "+workloadNames())
	seed := flag.Uint64("seed", 1, "seed of the op stream and the session's data")
	seconds := flag.Int("seconds", 20, "length of the timed window")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced in-process replay")
	bin := flag.String("dynshapd", ".bench_build/dynshapd", "dynshapd binary")
	work := flag.String("work", ".bench_build", "scratch directory for data dirs, logs and spans")
	flag.Parse()

	w, err := workloadByName(*name)
	if err != nil {
		fatal(err)
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("--seconds must be at least 1"))
	}
	rep, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *bin, *work)
	if err != nil {
		fatal(err)
	}
	rep.print(os.Stdout, *trace == 1)
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return strings.Join(names, ", ")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run performs one benchmark run and returns its report.
func run(w Workload, seed uint64, window time.Duration, traced bool, bin, work string) (*report, error) {
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("dynshapd binary: %w", err)
	}
	nproc := runtime.NumCPU()
	writeConns := w.WriteConns
	if writeConns == 0 {
		writeConns = nproc
	}
	p := BuildPlan(w, seed, window, writeConns)
	if conns := writeConns + len(p.Pools) - 1; conns > nproc {
		return nil, fmt.Errorf("workload %s needs %d connections, more than nproc=%d", w.Name, conns, nproc)
	}
	dir, err := filepath.Abs(filepath.Join(work, fmt.Sprintf("run-%s-%d-%d", w.Name, seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	logf, err := os.Create(filepath.Join(dir, "dynshapd.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()

	rep := &report{w: w, p: p, nproc: nproc}
	begin := time.Now()
	// Set-up: launch and create several times; the last server stays up.
	var srv *server
	for i := 0; i <= setupRepeats/2; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, fmt.Errorf("stopping set-up server: %w", err)
			}
			time.Sleep(setupGap)
		}
		s, d, err := setupOnce(bin, filepath.Join(dir, fmt.Sprintf("data%d", i)), w, seed, logf)
		if err != nil {
			return nil, err
		}
		srv = s
		if i > 0 {
			rep.setups = append(rep.setups, d.Seconds())
		}
	}
	rep.serverArgs = srv.args

	pools := make([][]Executor, len(p.Pools))
	var clients []*client
	for i, n := range p.Pools {
		for j := 0; j < n; j++ {
			c := newClient(srv.base)
			clients = append(clients, c)
			pools[i] = append(pools[i], c)
		}
	}
	begin = rep.phase("set-up", begin)
	res, late := runOpenLoop(p, pools)
	begin = rep.phase("window", begin)
	for _, c := range clients {
		c.close()
	}
	final, err := collectFinal(srv)
	if err != nil {
		srv.stop()
		return nil, fmt.Errorf("reading final state: %w", err)
	}
	begin = rep.phase("collect", begin)
	for i := 0; i < setupRepeats/2; i++ {
		time.Sleep(setupGap)
		s, d, err := setupOnce(bin, filepath.Join(dir, fmt.Sprintf("data-after%d", i)), w, seed, logf)
		if err != nil {
			return nil, err
		}
		if err := s.stop(); err != nil {
			return nil, fmt.Errorf("stopping set-up server: %w", err)
		}
		rep.setups = append(rep.setups, d.Seconds())
	}
	begin = rep.phase("set-up after", begin)
	rep.addRun(res, late, final)
	runChecks(&rep.checks, p, res, final)
	begin = rep.phase("checks", begin)
	if !traced {
		rep.layer = append(rep.layer, rep.overheadMetric(0, false))
		return rep, nil
	}
	tr, err := tracedReplay(p, filepath.Join(dir, "trace"), &rep.checks)
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	rep.layer = append(rep.layer, rep.overheadMetric(preTimerMs(tr.spans), true))
	rep.layer = append(rep.layer, tr.metrics...)
	rep.phase("traced replay", begin)
	spans := filepath.Join(work, fmt.Sprintf("spans-%s-seed%d.json", w.Name, seed))
	if err := tr.writeSpans(spans, rep.env()); err != nil {
		return nil, err
	}
	rep.spansFile = spans
	return rep, nil
}

// metric is one reported number.
type metric struct {
	Name    string
	Value   float64
	Unit    string
	Samples int // 0: not a sample statistic
	Note    string
}

type report struct {
	w          Workload
	p          Plan
	nproc      int
	serverArgs []string
	setups     []float64

	attempted, failed int
	overhead          []float64 // per /add: client service time − journal seconds, ms
	lateP99           Quantile
	e2e               []metric
	layer             []metric
	checks            Checks
	spansFile         string
	phases            []string
}

// phase records how long a stage of the run took since begin and returns
// the start of the next stage.
func (r *report) phase(name string, begin time.Time) time.Time {
	r.phases = append(r.phases, fmt.Sprintf("%s %.1fs", name, time.Since(begin).Seconds()))
	return time.Now()
}

// env is the run's environment, printed in the report and written beside
// the spans.
func (r *report) env() map[string]any {
	return map[string]any{
		"nproc": r.nproc, "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(), "cpu": cpuModel(),
		"dynshapd_flags": strings.Join(r.serverArgs, " "),
		"durability":     "no fsync: dynshapd writes snapshots and the journal tail without fsync",
	}
}

func (r *report) print(out *os.File, traced bool) {
	fmt.Fprintf(out, "perfbench workload=%s seed=%d window=%s\n", r.w.Name, r.p.Seed, r.p.Window)
	env := r.env()
	fmt.Fprintf(out, "env: nproc=%v GOMAXPROCS=%v go=%v cpu=%q\n", env["nproc"], env["gomaxprocs"], env["go"], env["cpu"])
	fmt.Fprintf(out, "dynshapd %s (%s)\n", env["dynshapd_flags"], env["durability"])
	fmt.Fprintf(out, "open loop: writes %.1f/s Poisson on %d conn(s), reads %.1f/s + probe %.1f/s; ops %v\n",
		r.w.WriteRate, r.p.WriteConns, r.w.ReadRate, r.w.ProbeRate, countsString(r.p.Counts()))
	fmt.Fprintf(out, "phases: %s\n", strings.Join(r.phases, ", "))
	fmt.Fprintf(out, "set-ups (s): %.4f\n", r.setups)
	fmt.Fprintf(out, "attempted=%d failed=%d fail_frac=%g\n", r.attempted, r.failed, float64(r.failed)/float64(r.attempted))
	fmt.Fprintf(out, "gen_late_p99_ms=%.3f (n=%d, bound %d ms)\n", r.lateP99.Value, r.lateP99.Samples, maxLateMS)
	if r.w.Exact {
		fmt.Fprintf(out, "exactness: max |served − KNNShapley| = %g (bound 1e-12)\n", r.checks.ExactError)
	} else {
		fmt.Fprintf(out, "value_rmse=%.6g (bound %g) vs MC reference τ_ref=%d seed=%d; reference seeds %v agree to rmse %.3g (bound %g, %.2f of value_rmse)\n",
			r.checks.RMSE, maxRMSE, r.checks.RefTau, r.checks.RefSeeds[0], r.checks.RefSeeds, r.checks.RefAgree,
			maxRefShare*maxRMSE, r.checks.RefAgree/r.checks.RMSE)
	}
	for _, f := range r.checks.Failures {
		fmt.Fprintln(out, "CHECK FAILED:", f)
	}
	if traced && r.spansFile != "" {
		fmt.Fprintf(out, "spans: %s\n", r.spansFile)
	}
	// Every metric the run has is printed; the JSON line carries the
	// end-to-end set, or with --trace 1 the per-layer set.
	selected := map[string]any{}
	for i, set := range [][]metric{r.e2e, r.layer} {
		fmt.Fprintln(out, [...]string{"end-to-end:", "per-layer:"}[i])
		for _, m := range set {
			line := fmt.Sprintf("  %-32s %14.6g %-6s", m.Name, m.Value, m.Unit)
			if m.Samples > 0 {
				line += fmt.Sprintf(" n=%d", m.Samples)
			}
			if m.Note != "" {
				line += " " + m.Note
			}
			fmt.Fprintln(out, line)
			if (i == 1) == traced {
				selected[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
			}
		}
	}
	b, err := json.Marshal(map[string]any{
		"correct":   len(r.checks.Failures) == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   selected,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(out, string(b))
}

func countsString(c map[OpKind]int) string {
	var parts []string
	for k, n := range c {
		parts = append(parts, fmt.Sprintf("%s=%d", k, n))
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
