package main

import (
	"fmt"
	"time"
)

// failedLatency is what a failed or refused op counts as: the client's
// timeout, above every latency limit.
const failedLatency = 60 * time.Second

// reported are the latency percentiles: the median of each op. Tails did
// not repeat on a shared 2-vCPU host: between seeds the interquartile
// range over median of p75 reached 75% and of p90-p99 26-90%, above
// the largest bound (25%) the benchmark may set.
var reported = []struct {
	name string
	kind OpKind
	p    float64
}{
	{"add_p50_ms", OpAdd, 0.50},
	{"del_p50_ms", OpDelete, 0.50},
	{"values_p50_ms", OpValues, 0.50},
	{"topk_p50_ms", OpTopK, 0.50},
}

// addRun derives the end-to-end metrics and the untraced per-layer
// metrics from the client's results and the final server state.
func (r *report) addRun(res []Result, late []float64, f Final) {
	lat := map[OpKind][]float64{}
	for i, op := range r.p.Ops {
		r.attempted++
		l := res[i].Latency
		if res[i].Err != nil {
			r.failed++
			l = failedLatency
		}
		lat[op.Kind] = append(lat[op.Kind], ms(l))
	}
	r.lateP99 = percentile(late, 0.99)
	if r.lateP99.Value > maxLateMS {
		r.checks.fail("generator lateness p99 %.3f ms (n=%d) exceeds %d ms", r.lateP99.Value, r.lateP99.Samples, maxLateMS)
	}

	r.e2e = append(r.e2e, metric{Name: "setup_s", Value: median(r.setups), Unit: "s", Samples: len(r.setups)})
	for _, q := range reported {
		v := percentile(lat[q.kind], q.p)
		r.e2e = append(r.e2e, metric{Name: q.name, Value: v.Value, Unit: "ms", Samples: v.Samples})
		if !v.OK() {
			r.checks.fail("%s has %d samples beyond it (n=%d), fewer than %d", q.name, v.Beyond, v.Samples, minBeyond)
		}
	}
	r.e2e = append(r.e2e, metric{Name: "server_rss_mb", Value: f.RSSMB, Unit: "MB", Note: "VmHWM"})

	// Untraced per-layer numbers: responses joined to their journal records.
	recs := map[int]int{} // version → index in f.History
	var addSec, delSec, prefix, perms, trainings []float64
	for i, u := range f.History {
		recs[u.Version] = i
		switch u.Op {
		case "add":
			addSec = append(addSec, u.Seconds*1000)
		case "delete":
			delSec = append(delSec, u.Seconds*1000)
		default:
			continue
		}
		prefix = append(prefix, float64(u.PrefixAdds))
		perms = append(perms, float64(u.Permutations))
		trainings = append(trainings, float64(u.Trainings))
	}
	var window []float64
	for i, op := range r.p.Ops {
		if op.Kind != OpAdd || res[i].Err != nil {
			continue
		}
		window = append(window, float64(res[i].Window))
		if k, ok := recs[res[i].Version]; ok {
			r.overhead = append(r.overhead, ms(res[i].Service())-f.History[k].Seconds*1000)
		}
	}
	r.layer = append(r.layer,
		metric{Name: "session.add_ms", Value: median(addSec), Unit: "ms", Samples: len(addSec), Note: "median journal seconds"},
		metric{Name: "session.del_ms", Value: median(delSec), Unit: "ms", Samples: len(delSec), Note: "median journal seconds"},
		metric{Name: "coalesce.window_points", Value: mean(window), Unit: "points", Samples: len(window), Note: "mean /add window"},
		metric{Name: "core.prefix_adds_per_update", Value: mean(prefix), Unit: "count", Samples: len(prefix)},
		metric{Name: "core.permutations_per_update", Value: mean(perms), Unit: "count", Samples: len(perms)},
		metric{Name: "utility.trainings_per_update", Value: mean(trainings), Unit: "count", Samples: len(trainings)},
	)
}

// overheadMetric is serve.add_overhead_ms: the median /add client service
// time minus the journal's seconds. Those seconds start only after the
// update has cloned the exact estimator and asked the planner, so preMs,
// the traced run's median of that work per add, is subtracted as well.
// Without a traced run preMs is unknown and the number still includes it.
func (r *report) overheadMetric(preMs float64, traced bool) metric {
	m := metric{Name: "serve.add_overhead_ms", Value: median(r.overhead) - preMs, Unit: "ms", Samples: len(r.overhead)}
	if traced {
		m.Note = fmt.Sprintf("estimate: median client service time − journal seconds − %.4g ms traced exact clone + plan", preMs)
	} else {
		m.Note = "median client service time − journal seconds (includes exact clone + plan; --trace 1 subtracts them)"
	}
	return m
}

// preTimerMs is the median, over the traced run's adds, of the shadows'
// exact.clone and plan.decide time: the work Session does inside an add
// before the journal's timer starts.
func preTimerMs(spans []Span) float64 {
	adds := map[int]bool{}
	pre := map[int]float64{} // ns per version
	for _, s := range spans {
		switch s.Name {
		case "session.add":
			adds[s.Version] = true
		case "exact.clone", "plan.decide":
			pre[s.Version] += float64(s.dur())
		}
	}
	var xs []float64
	for v := range adds {
		xs = append(xs, pre[v])
	}
	return median(xs) / 1e6
}

// shadowChildren are the spans the shadow replay times inside one update;
// Session's self time is its own span minus theirs.
var shadowChildren = map[string]bool{
	"plan.decide": true, "utility.append": true, "utility.remove": true,
	"core.walk_add": true, "core.walk_del": true,
	"exact.clone": true, "exact.add": true, "exact.delete": true,
}

// traceMetrics aggregates the traced replay's spans into the per-layer
// metrics. A layer that never ran reports 0.
func traceMetrics(spans []Span, ip *inProc, sh *shadow) []metric {
	durs := map[string][]float64{} // ns
	counts := map[string][]float64{}
	session := map[int]float64{}
	children := map[int]float64{}
	var walkNs, walkAdds float64
	for _, s := range spans {
		d := float64(s.dur())
		durs[s.Name] = append(durs[s.Name], d)
		counts[s.Name] = append(counts[s.Name], float64(s.N))
		switch {
		case s.Name == "session.add" || s.Name == "session.delete":
			session[s.Version] = d
		case shadowChildren[s.Name]:
			children[s.Version] += d
		}
		if s.Name == "core.walk_add" || s.Name == "core.walk_del" {
			walkNs += d
			walkAdds += float64(s.N)
		}
	}
	var self []float64
	for v, d := range session {
		self = append(self, d-children[v])
	}
	var tailBytes []float64
	for _, n := range counts["serve.tail_append"] {
		if n > 0 {
			tailBytes = append(tailBytes, n)
		}
	}
	med := func(name, metricName, unit string, scale float64, note string) metric {
		xs := durs[name]
		return metric{Name: metricName, Value: median(xs) / scale, Unit: unit, Samples: len(xs), Note: note}
	}
	const usNs, msNs = 1e3, 1e6
	nsPerAdd := 0.0
	if walkAdds > 0 {
		nsPerAdd = walkNs / walkAdds
	}
	var estBytes float64
	if sh.est != nil {
		estBytes = float64(sh.est.MemoryBytes())
	}
	return []metric{
		med("serve.decode", "serve.decode_us", "us", usNs, ""),
		med("serve.tail_append", "serve.tail_append_us", "us", usNs, ""),
		{Name: "journal.record_bytes", Value: median(tailBytes), Unit: "bytes", Samples: len(tailBytes), Note: "median tail record"},
		med("serve.values_encode", "serve.values_encode_us", "us", usNs, ""),
		med("session.values", "session.values_us", "us", usNs, ""),
		med("serve.topk_encode", "serve.topk_encode_us", "us", usNs, ""),
		med("session.topk", "session.topk_us", "us", usNs, ""),
		med("serve.snapshot", "serve.snapshot_ms", "ms", msNs, "Session.Snapshot + Save"),
		{Name: "serve.snapshot_bytes", Value: median(counts["serve.snapshot"]), Unit: "bytes", Samples: len(counts["serve.snapshot"])},
		med("coalesce.queue_wait", "coalesce.queue_wait_us", "us", usNs, "submit → executor entry"),
		{Name: "session.self_ms", Value: median(self) / msNs, Unit: "ms", Samples: len(self), Note: "estimate: session span − shadow children"},
		med("plan.decide", "plan.decide_us", "us", usNs, ""),
		med("utility.append", "utility.append_us", "us", usNs, ""),
		med("utility.remove", "utility.remove_us", "us", usNs, ""),
		med("core.walk_add", "core.walk_add_ms", "ms", msNs, ""),
		med("core.walk_del", "core.walk_del_ms", "ms", msNs, ""),
		{Name: "core.ns_per_prefix_add", Value: nsPerAdd, Unit: "ns", Samples: int(walkAdds)},
		med("core.init", "core.init_ms", "ms", msNs, ""),
		med("exact.clone", "exact.clone_ms", "ms", msNs, ""),
		med("exact.add", "exact.add_ms", "ms", msNs, ""),
		med("exact.delete", "exact.delete_ms", "ms", msNs, ""),
		med("exact.build", "exact.build_ms", "ms", msNs, ""),
		{Name: "exact.bytes", Value: estBytes, Unit: "bytes"},
		{Name: "utility.kernel_bytes", Value: float64(sh.u.KernelMemoryBytes()), Unit: "bytes"},
		{Name: "go.alloc_bytes_per_update", Value: mean(ip.allocBytes), Unit: "bytes", Samples: len(ip.allocBytes), Note: "process-wide during Session.Add/Delete"},
		{Name: "go.gc_pause_us_per_update", Value: mean(ip.gcPauseNs) / usNs, Unit: "us", Samples: len(ip.gcPauseNs), Note: "process-wide during Session.Add/Delete"},
	}
}
