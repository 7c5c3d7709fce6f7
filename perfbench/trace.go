package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"dynshap"
	"dynshap/internal/coalesce"
	"dynshap/internal/core"
	"dynshap/internal/dataset"
	"dynshap/internal/exact"
	"dynshap/internal/game"
	"dynshap/internal/plan"
	"dynshap/internal/rng"
	"dynshap/internal/utility"
)

// Span is one timed call into a layer. Spans of one request share Op (the
// op's sequence number); spans of one executed update share Version.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	Op      int    `json:"op"`
	Version int    `json:"version,omitempty"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	// N is the span's count: bytes written, prefix adds walked, points.
	N int64 `json:"n,omitempty"`
}

func (s Span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func (t *tracer) add(s Span, begin, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	s.Start, s.End = begin.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, s)
	return s.ID
}

// timed runs f and records it as a span carrying f's count.
func (t *tracer) timed(s Span, f func() int64) {
	begin := time.Now()
	s.N = f()
	t.add(s, begin, time.Now())
}

// admission is one add or delete as the coalescer admitted it.
type admission struct {
	op     int
	points int
	at     time.Time
}

// inProc serves a plan's ops in-process: the serve layer's steps are
// mirrored around the session's public API, and writes go through the
// benchmark's own coalescer so queue waits are measurable.
type inProc struct {
	s  *dynshap.Session
	co *coalesce.Coalescer
	tr *tracer

	snapPath string

	// admitMu orders admissions exactly as the coalescer's queue does;
	// the drainer consumes them window by window from next.
	admitMu  sync.Mutex
	admitted []admission
	next     int

	// tailMu guards the journal tail mirror, as serve's logThrough does.
	tailMu     sync.Mutex
	tail       *os.File
	tailBuf    bytes.Buffer
	tailEnc    *json.Encoder
	lastLogged int

	// Memory statistics around each session update (drainer only).
	allocBytes, gcPauseNs []float64
}

// wirePoint mirrors serve's request body for /add.
type wirePoint struct {
	X []float64 `json:"x"`
	Y int       `json:"y"`
}

func (ip *inProc) Exec(op *Op) (opResponse, error) {
	var resp opResponse
	var err error
	root := time.Now()
	switch op.Kind {
	case OpAdd, OpDelete:
		body := opBody(op)
		var h *coalesce.Handle
		var wp wirePoint
		var del struct {
			Indices []int `json:"indices"`
		}
		ip.tr.timed(Span{Name: "serve.decode", Op: op.Seq}, func() int64 {
			if op.Kind == OpAdd {
				err = json.NewDecoder(bytes.NewReader(body)).Decode(&wp)
			} else {
				err = json.NewDecoder(bytes.NewReader(body)).Decode(&del)
			}
			return int64(len(body))
		})
		if err != nil {
			return resp, err
		}
		ip.admitMu.Lock()
		a := admission{op: op.Seq, points: 1, at: time.Now()}
		if op.Kind == OpAdd {
			ip.admitted = append(ip.admitted, a)
			h = ip.co.SubmitAdd(dataset.Point{X: wp.X, Y: wp.Y})
		} else {
			a.points = len(del.Indices)
			ip.admitted = append(ip.admitted, a)
			h = ip.co.SubmitDelete(del.Indices)
		}
		ip.admitMu.Unlock()
		res, werr := h.Wait()
		if werr != nil {
			return resp, werr
		}
		resp = opResponse{Version: res.Version, Window: res.Window}
		ip.tr.timed(Span{Name: "serve.tail_append", Op: op.Seq, Version: res.Version}, func() int64 {
			var n int64
			n, err = ip.logThrough(res.Version)
			return n
		})
	case OpValues:
		var vals []float64
		var version int
		ip.tr.timed(Span{Name: "session.values", Op: op.Seq}, func() int64 {
			version = ip.s.Version()
			vals = ip.s.Values()
			return int64(len(vals))
		})
		ip.tr.timed(Span{Name: "serve.values_encode", Op: op.Seq}, func() int64 {
			return encodeLen(map[string]any{"version": version, "values": vals})
		})
	case OpTopK:
		var top []int
		var version int
		ip.tr.timed(Span{Name: "session.topk", Op: op.Seq}, func() int64 {
			version = ip.s.Version()
			top = ip.s.TopK(10)
			return int64(len(top))
		})
		ip.tr.timed(Span{Name: "serve.topk_encode", Op: op.Seq}, func() int64 {
			return encodeLen(map[string]any{"version": version, "topk": top})
		})
	case OpSnapshot:
		err = ip.snapshot(op.Seq)
	}
	ip.tr.add(Span{Name: "op." + op.Kind.String(), Op: op.Seq}, root, time.Now())
	return resp, err
}

// encodeBuf is reused across encodes, as serve pools its buffers.
var encodeBuf = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func encodeLen(v any) int64 {
	buf := encodeBuf.Get().(*bytes.Buffer)
	defer encodeBuf.Put(buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		panic(err) // plain numbers always encode
	}
	return int64(buf.Len())
}

// logThrough mirrors serve's journal-tail append: every record in
// (lastLogged, version] is JSON-encoded and written to the tail file.
func (ip *inProc) logThrough(version int) (int64, error) {
	ip.tailMu.Lock()
	defer ip.tailMu.Unlock()
	var n int64
	for v := ip.lastLogged + 1; v <= version; v++ {
		rec, err := ip.s.At(v)
		if err != nil {
			return n, err
		}
		ip.tailBuf.Reset()
		if err := ip.tailEnc.Encode(rec); err != nil {
			return n, err
		}
		if _, err := ip.tail.Write(ip.tailBuf.Bytes()); err != nil {
			return n, err
		}
		n += int64(ip.tailBuf.Len())
	}
	if version > ip.lastLogged {
		ip.lastLogged = version
	}
	return n, nil
}

// snapshot mirrors serve's POST /snapshot: flush, Session.Snapshot, Save,
// truncate the tail.
func (ip *inProc) snapshot(op int) error {
	if err := ip.co.Flush(); err != nil {
		return err
	}
	var err error
	ip.tr.timed(Span{Name: "serve.snapshot", Op: op}, func() int64 {
		sn := ip.s.Snapshot()
		if err = sn.Save(ip.snapPath); err != nil {
			return 0
		}
		ip.tailMu.Lock()
		defer ip.tailMu.Unlock()
		if err = ip.tail.Truncate(0); err != nil {
			return 0
		}
		if _, err = ip.tail.Seek(0, 0); err != nil {
			return 0
		}
		ip.lastLogged = sn.Version
		fi, serr := os.Stat(ip.snapPath)
		if serr != nil {
			err = serr
			return 0
		}
		return fi.Size()
	})
	return err
}

// take consumes the admissions an executed window covers.
func (ip *inProc) take(points int) []admission {
	ip.admitMu.Lock()
	defer ip.admitMu.Unlock()
	start := ip.next
	for got := 0; got < points && ip.next < len(ip.admitted); ip.next++ {
		got += ip.admitted[ip.next].points
	}
	return ip.admitted[start:ip.next]
}

// ExecAdd is the benchmark's coalesce.Executor over Session.Add.
func (ip *inProc) ExecAdd(points []dataset.Point) (coalesce.Batch, error) {
	return ip.exec(points, nil)
}

// ExecDelete is the benchmark's coalesce.Executor over Session.Delete.
func (ip *inProc) ExecDelete(indices []int) (coalesce.Batch, error) {
	return ip.exec(nil, indices)
}

func (ip *inProc) exec(points []dataset.Point, indices []int) (coalesce.Batch, error) {
	entry := time.Now()
	subs := ip.take(len(points) + len(indices))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	begin := time.Now()
	var vals []float64
	var err error
	name := "session.add"
	if points != nil {
		vals, err = ip.s.Add(points, dynshap.AlgoAuto)
	} else {
		name = "session.delete"
		vals, err = ip.s.Delete(indices, dynshap.AlgoAuto)
	}
	end := time.Now()
	runtime.ReadMemStats(&after)
	if err != nil {
		return coalesce.Batch{}, err
	}
	u, err := ip.s.At(ip.s.Version())
	if err != nil {
		return coalesce.Batch{}, err
	}
	ip.allocBytes = append(ip.allocBytes, float64(after.TotalAlloc-before.TotalAlloc))
	ip.gcPauseNs = append(ip.gcPauseNs, float64(after.PauseTotalNs-before.PauseTotalNs))
	for _, a := range subs {
		ip.tr.add(Span{Name: "coalesce.queue_wait", Op: a.op, Version: u.Version}, a.at, entry)
	}
	win := ip.tr.add(Span{Name: "coalesce.window", Version: u.Version, N: int64(len(subs))}, entry, time.Now())
	ip.tr.add(Span{Name: name, Parent: win, Version: u.Version}, begin, end)
	b := coalesce.Batch{Version: u.Version, Algo: u.Algo}
	if points != nil {
		b.Base = len(vals) - len(points)
		b.Values = u.BatchValues
		if b.Values == nil {
			b.Values = vals[len(vals)-len(points):]
		}
	} else {
		b.Values = u.RemovedValues
	}
	return b, nil
}

// traceResult is what the traced replay measured.
type traceResult struct {
	w       Workload
	seed    uint64
	spans   []Span
	metrics []metric
}

// tracedReplay replays the plan's op stream in-process on its schedule,
// then re-runs every journaled update through shadow instances of the
// layers below Session, built by their public constructors from the same
// inputs, timing each call.
func tracedReplay(p Plan, dir string, checks *Checks) (*traceResult, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := p.W
	tr := &tracer{t0: time.Now()}
	opts := []dynshap.Option{
		dynshap.WithSamples(w.Samples), dynshap.WithUpdateSamples(w.UpdateSamples),
		dynshap.WithSeed(sessionSeed(p.Seed)), dynshap.WithWorkers(updateWorkers),
	}
	s := dynshap.NewSession(p.Train, p.Test, trainerOf(w), opts...)
	begin := time.Now()
	if err := s.Init(); err != nil {
		return nil, err
	}
	tr.add(Span{Name: "session.init", Version: 1}, begin, time.Now())
	tail, err := os.OpenFile(filepath.Join(dir, sessionName+".journal.jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer tail.Close()
	ip := &inProc{s: s, tr: tr, snapPath: filepath.Join(dir, sessionName+".snap.json"), tail: tail, lastLogged: s.Version()}
	ip.tailEnc = json.NewEncoder(&ip.tailBuf)
	ip.co = coalesce.New(ip, coalesce.Config{MaxBatch: dynshap.DefaultCoalesceBatch, MaxDelay: dynshap.DefaultCoalesceDelay})

	pools := make([][]Executor, len(p.Pools))
	for i, n := range p.Pools {
		for j := 0; j < n; j++ {
			pools[i] = append(pools[i], ip)
		}
	}
	res, _ := runOpenLoop(p, pools)
	for i, r := range res {
		if r.Err != nil {
			ip.co.Close()
			return nil, fmt.Errorf("op %d (%s): %w", i, p.Ops[i].Kind, r.Err)
		}
	}
	// One final snapshot, so every workload reports the persist cost.
	if err := ip.snapshot(len(p.Ops)); err != nil {
		ip.co.Close()
		return nil, err
	}
	if err := ip.co.Close(); err != nil {
		return nil, err
	}

	sh := newShadow(p, tr)
	for _, u := range s.History() {
		if err := sh.apply(u); err != nil {
			return nil, fmt.Errorf("shadow version %d (%s %s): %w", u.Version, u.Op, u.Algo, err)
		}
	}
	got := s.Values()
	for i := range got {
		if len(sh.sv) != len(got) || math.Float64bits(sh.sv[i]) != math.Float64bits(got[i]) {
			checks.fail("traced shadows diverged from the session's values at index %d", i)
			break
		}
	}
	if sh.planMismatch > 0 {
		checks.fail("shadow planner disagreed with the journal on %d updates", sh.planMismatch)
	}
	out := &traceResult{w: w, seed: p.Seed, spans: tr.spans}
	out.metrics = traceMetrics(tr.spans, ip, sh)
	return out, nil
}

// shadow re-executes journaled updates through the layers' own public
// constructors and functions — utility, game cache, core engine, exact
// estimator, planner — mirroring what Session does inside
// each update, so each layer's share of an update can be timed.
type shadow struct {
	w    Workload
	seed uint64
	tr   *tracer
	m    int

	u     *utility.ModelUtility
	cache *game.Cached
	eng   *core.Engine
	sv    []float64
	est   *exact.Estimator
	fresh bool

	planMismatch int
}

func newShadow(p Plan, tr *tracer) *shadow {
	return &shadow{
		w: p.W, seed: sessionSeed(p.Seed), tr: tr, m: p.Test.Len(),
		u:   utility.NewModelUtility(p.Train, p.Test, trainerOf(p.W), utility.WithWorkers(updateWorkers)),
		eng: core.NewEngine(core.WithWorkers(updateWorkers)),
	}
}

func (sh *shadow) apply(u dynshap.UpdateRecord) error {
	r := rng.NewStream(sh.seed, uint64(u.Version))
	switch u.Op {
	case "init":
		return sh.init(u, r)
	case "add":
		return sh.add(u, r)
	case "delete":
		return sh.delete(u, r)
	}
	return fmt.Errorf("unexpected journal op %q", u.Op)
}

func (sh *shadow) init(u dynshap.UpdateRecord, r *rng.Source) error {
	sh.cache = game.NewCached(sh.u)
	if u.Algo == dynshap.AlgoExactKNN.String() {
		var err error
		sh.tr.timed(Span{Name: "exact.build", Version: u.Version}, func() int64 {
			sh.est, err = sh.buildExact()
			if err == nil {
				sh.sv = sh.est.Values()
			}
			return int64(sh.u.N())
		})
		return err
	}
	var err error
	var res *core.InitResult
	sh.tr.timed(Span{Name: "core.init", Version: u.Version}, func() int64 {
		res, err = sh.eng.Initialize(sh.cache, sh.w.Samples, core.InitOptions{}, r.Split())
		return int64(sh.w.Samples)
	})
	if err != nil {
		return err
	}
	sh.sv, sh.fresh = res.SV(), true
	return nil
}

func (sh *shadow) buildExact() (*exact.Estimator, error) {
	kernel, k, ok := sh.u.ExactKNNState()
	if !ok {
		return nil, fmt.Errorf("utility has no exact k-NN state")
	}
	train := sh.u.Train()
	test := sh.u.Test()
	trainLabels := make([]int, train.Len())
	for i, p := range train.Points {
		trainLabels[i] = p.Y
	}
	testLabels := make([]int, test.Len())
	for j, p := range test.Points {
		testLabels[j] = p.Y
	}
	return exact.New(kernel, trainLabels, testLabels, k, 0), nil
}

// decide times the planner on the same request and artifacts the session
// saw, and counts disagreements with the journaled algorithm.
func (sh *shadow) decide(u dynshap.UpdateRecord, op plan.Op, count int) {
	var dec plan.Decision
	sh.tr.timed(Span{Name: "plan.decide", Version: u.Version}, func() int64 {
		dec = plan.Plan(
			plan.Request{Op: op, Count: count, Indices: u.Indices, Coalesced: true},
			plan.Artifacts{N: sh.u.N(), ExactKNN: sh.est != nil, TestPoints: sh.m, StoresFresh: sh.fresh},
			plan.Budget{UpdateTau: sh.w.UpdateSamples},
		)
		return int64(count)
	})
	if dec.Choice.String() != u.Algo {
		sh.planMismatch++
	}
	sh.fresh = false
}

func (sh *shadow) add(u dynshap.UpdateRecord, r *rng.Source) error {
	pts := u.Points
	sh.decide(u, plan.OpAdd, len(pts))
	var uPlus *utility.ModelUtility
	sh.tr.timed(Span{Name: "utility.append", Version: u.Version}, func() int64 {
		uPlus = sh.u.Append(pts...)
		return int64(len(pts))
	})
	switch u.Algo {
	case "Exact-KNN":
		var est *exact.Estimator
		sh.tr.timed(Span{Name: "exact.clone", Version: u.Version}, func() int64 {
			est = sh.est.Clone()
			return est.MemoryBytes()
		})
		kernel, _, ok := uPlus.ExactKNNState()
		if !ok {
			return fmt.Errorf("appended utility lost its exact k-NN state")
		}
		labels := make([]int, len(pts))
		for i, p := range pts {
			labels[i] = p.Y
		}
		sh.tr.timed(Span{Name: "exact.add", Version: u.Version}, func() int64 {
			est.Add(kernel, sh.u.N(), labels)
			sh.sv = est.Values()
			return int64(len(pts))
		})
		sh.est = est
	case "Delta", "Delta-batch":
		if err := sh.walkAdd(u, uPlus, r); err != nil {
			return err
		}
	default:
		return fmt.Errorf("no shadow for add algorithm %q", u.Algo)
	}
	sh.u = uPlus
	sh.cache = game.NewCachedShared(sh.u, sh.cache)
	return nil
}

// walkAdd runs the core walk an add record resolved to, as Session does.
func (sh *shadow) walkAdd(u dynshap.UpdateRecord, uPlus *utility.ModelUtility, r *rng.Source) error {
	k := len(u.Points)
	tau := sh.w.UpdateSamples
	var err error
	sh.walk("core.walk_add", u.Version, func() int64 {
		switch u.Algo {
		case "Delta":
			// Sequential Delta prices each point against the set grown by
			// its predecessors.
			var adds int64
			cur, cache := sh.u, sh.cache
			for i := range u.Points {
				next := uPlus
				if k > 1 {
					next = cur.Append(u.Points[i])
				}
				before := next.PrefixAdds()
				g := game.NewCachedShared(next, cache)
				if sh.sv, err = sh.eng.DeltaAdd(g, sh.sv, tau, r.Split()); err != nil {
					return adds
				}
				adds += next.PrefixAdds() - before
				cur, cache = next, game.NewCachedShared(next, cache)
			}
			return adds
		default: // Delta-batch
			before := uPlus.PrefixAdds()
			sh.sv, err = sh.eng.BatchDeltaAdd(game.NewCachedShared(uPlus, sh.cache), sh.sv, k, tau, r.Split())
			return uPlus.PrefixAdds() - before
		}
	})
	return err
}

// walk times one core walk; f returns the prefix additions it made.
func (sh *shadow) walk(name string, version int, f func() int64) {
	sh.tr.timed(Span{Name: name, Version: version}, f)
}

func (sh *shadow) delete(u dynshap.UpdateRecord, r *rng.Source) error {
	idx := u.Indices
	sh.decide(u, plan.OpDelete, len(idx))
	n := sh.u.N()
	var expanded []float64
	var err error
	var removedPhys []int32
	switch u.Algo {
	case "Exact-KNN":
		kernel, _, ok := sh.u.ExactKNNState()
		if !ok {
			return fmt.Errorf("utility has no exact k-NN state")
		}
		removedPhys = make([]int32, len(idx))
		for i, p := range idx {
			removedPhys[i] = kernel.Phys(p)
		}
	case "Delta-batch":
		sh.walk("core.walk_del", u.Version, func() int64 {
			before := sh.u.PrefixAdds()
			expanded, err = sh.eng.BatchDeltaDelete(sh.cache, sh.sv, idx, sh.w.UpdateSamples, r.Split())
			return sh.u.PrefixAdds() - before
		})
	default:
		return fmt.Errorf("no shadow for delete algorithm %q", u.Algo)
	}
	if err != nil {
		return err
	}
	sh.tr.timed(Span{Name: "utility.remove", Version: u.Version}, func() int64 {
		sh.u = sh.u.Remove(idx...)
		return int64(len(idx))
	})
	sh.cache = game.NewCached(sh.u)
	if removedPhys != nil {
		var est *exact.Estimator
		sh.tr.timed(Span{Name: "exact.clone", Version: u.Version}, func() int64 {
			est = sh.est.Clone()
			return est.MemoryBytes()
		})
		kernel, _, _ := sh.u.ExactKNNState()
		sh.tr.timed(Span{Name: "exact.delete", Version: u.Version}, func() int64 {
			// Session reads the departing points' exact values before
			// the removal, then the survivors' after it.
			est.Values()
			est.Delete(removedPhys, kernel)
			sh.sv = est.Values()
			return int64(len(idx))
		})
		sh.est = est
		return nil
	}
	gone := make(map[int]bool, len(idx))
	for _, p := range idx {
		gone[p] = true
	}
	compact := make([]float64, 0, n-len(idx))
	for i, v := range expanded {
		if !gone[i] {
			compact = append(compact, v)
		}
	}
	sh.sv = compact
	return nil
}

// writeSpans writes the traced run's spans as one JSON document.
func (t *traceResult) writeSpans(path string, env map[string]any) error {
	b, err := json.Marshal(map[string]any{
		"workload": t.w.Name, "seed": t.seed, "env": env, "spans": t.spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
