package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"dynshap"
)

// OpKind is the kind of one request in a workload's op stream.
type OpKind int

const (
	OpAdd OpKind = iota
	OpDelete
	OpValues
	OpTopK
	OpSnapshot
)

func (k OpKind) String() string {
	return [...]string{"add", "delete", "values", "topk", "snapshot"}[k]
}

// Op is one scheduled request. Due is its offset from the start of the
// timed window; latency is measured from Due, not from when it was sent.
type Op struct {
	Seq     int
	Kind    OpKind
	Due     time.Duration
	Pool    int // connection pool that carries it
	Point   dynshap.Point
	Indices []int
}

// Workload is one traffic mix against one session shape.
type Workload struct {
	Name string
	Why  string

	// Session shape.
	Model         string // "knn" or "softknn"
	K             int
	Train, Test   int
	Samples       int
	UpdateSamples int

	// Write traffic: Poisson arrivals at WriteRate ops/s on WriteConns
	// connections (0 = nproc), blocks of 4 adds + 1 delete of DeleteSize
	// points in shuffled order. WriteFrac is the share of the timed window
	// the writes occupy; a read-only probe fills the rest when ProbeRate > 0.
	WriteRate  float64
	WriteConns int
	WriteFrac  float64
	DeleteSize int

	// Read traffic: /values and /topk alternating at a fixed ReadRate on
	// one connection, beside the writes.
	ReadRate float64
	// ProbeRate is the fixed read rate of the read-only probe after the
	// writes stop (delta-churn: its read path is idle while it writes).
	ProbeRate float64
	// SnapshotEvery schedules POST /snapshot on the write connection.
	SnapshotEvery time.Duration

	// Families lists the algorithms every add/delete record must resolve
	// to (the workload-identity check).
	Families []string
	// Exact marks the workload whose served values must equal the closed
	// form; the others are checked against a sampled reference.
	Exact bool
}

// workloads are the benchmark's traffic mixes. Write rates keep the
// session's single update worker busy well under a quarter of the time
// (see README.md): on a shared 2-vCPU host, higher rates let a busy
// neighbour core or a slower minute of the host stretch latency through
// queueing, far past the benchmark's bounds.
var workloads = []Workload{
	{
		Name:  "delta-churn",
		Why:   "sampled hot path: Delta and Delta-batch core walks over the knnPrefix evaluator, multi-point coalesce windows; read path idle while writing",
		Model: "knn", K: 3, Train: 200, Test: 50, Samples: 1000, UpdateSamples: 30,
		WriteRate: 35, WriteFrac: 0.8, DeleteSize: 4, ProbeRate: 600,
		Families: []string{"Delta", "Delta-batch"},
	},
	{
		Name:  "exact-reads",
		Why:   "closed-form exact estimator at n=1000: 6 MB estimator clones, 1000-value JSON reads, journal tail and snapshots; core walks idle",
		Model: "softknn", K: 3, Train: 1000, Test: 250, Samples: 1000, UpdateSamples: 30,
		WriteRate: 10, WriteConns: 1, WriteFrac: 1, DeleteSize: 4, ReadRate: 60,
		SnapshotEvery: 4 * time.Second,
		Families:      []string{"Exact-KNN"},
		Exact:         true,
	},
}

func workloadByName(name string) (Workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// updateWorkers is the session's accumulator and kernel worker count. With
// two workers an update needs both vCPUs of a 2-vCPU host, so a neighbour
// busy on either one stretches it: on such a host one busy neighbour
// thread moved exact-reads' add p50 by 57% with two workers, and no
// workload's by more than 11% with one.
const updateWorkers = 1

// Seeds derived from the benchmark seed: the session's data and sampling
// seeds, the add pool, and the op stream never share a stream.
func dataSeed(seed uint64) uint64    { return 1000 + seed }
func sessionSeed(seed uint64) uint64 { return 2000 + seed }
func poolSeed(seed uint64) uint64    { return 3000 + seed }
func streamSeed(seed uint64) uint64  { return 4000 + seed }

// probeGap separates the last write from the read-only probe.
const probeGap = 250 * time.Millisecond

// poolSize is the number of IrisLike points added points cycle through.
const poolSize = 4096

// Plan is a workload's complete input: the session's data and the op
// stream, all a pure function of the seed.
type Plan struct {
	W          Workload
	Seed       uint64
	Train      *dynshap.Dataset
	Test       *dynshap.Dataset
	Ops        []Op // sorted by Due
	Pools      []int
	WriteConns int
	Window     time.Duration
}

// Pool indices of a plan.
const (
	poolWrite = 0
	poolRead  = 1
)

// sessionData is the session's initial train and test sets, generated
// the same way dynshapd's synthetic create does.
func sessionData(w Workload, seed uint64) (train, test *dynshap.Dataset) {
	total := w.Train + w.Test
	return dynshap.IrisLike(total, dataSeed(seed)).Split(float64(w.Train) / float64(total))
}

// BuildPlan generates the op stream for a workload over a window.
// writeConns is the write pool's connection count; delete indices are
// drawn below the smallest n any in-flight reordering could produce, so
// every delete is valid whenever the server admits it.
func BuildPlan(w Workload, seed uint64, window time.Duration, writeConns int) Plan {
	train, test := sessionData(w, seed)
	p := Plan{W: w, Seed: seed, Train: train, Test: test, WriteConns: writeConns, Window: window}
	p.Pools = []int{writeConns}
	if w.ReadRate > 0 {
		p.Pools = append(p.Pools, 1)
	}
	rng := rand.New(rand.NewPCG(streamSeed(seed), 0x70657266))
	pool := dynshap.IrisLike(poolSize, poolSeed(seed)).Points

	// Writes: a Poisson process conditioned on its count, so every seed
	// offers the same number of each op: N uniform arrival times over the
	// write phase, in blocks of 4 adds + 1 delete in shuffled order, so n
	// returns to its start after every block.
	writeEnd := time.Duration(float64(window) * w.WriteFrac)
	arrivals := make([]float64, int(math.Round(w.WriteRate*writeEnd.Seconds())))
	for i := range arrivals {
		arrivals[i] = rng.Float64() * float64(writeEnd)
	}
	sort.Float64s(arrivals)
	hi := deleteBound(w, writeConns)
	var ops []Op
	adds := 0
	var block []OpKind
	for _, at := range arrivals {
		if len(block) == 0 {
			block = []OpKind{OpAdd, OpAdd, OpAdd, OpAdd, OpDelete}
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		}
		kind := block[0]
		block = block[1:]
		op := Op{Kind: kind, Due: time.Duration(at), Pool: poolWrite}
		if kind == OpAdd {
			src := pool[adds%len(pool)]
			op.Point = dynshap.Point{X: append([]float64(nil), src.X...), Y: src.Y}
			adds++
		} else {
			op.Indices = distinctBelow(rng, w.DeleteSize, hi)
		}
		ops = append(ops, op)
	}
	if w.SnapshotEvery > 0 {
		for due := w.SnapshotEvery; due < writeEnd; due += w.SnapshotEvery {
			ops = append(ops, Op{Kind: OpSnapshot, Due: due, Pool: poolWrite})
		}
	}
	// Reads: fixed rate, alternating /values and /topk.
	if w.ReadRate > 0 {
		ops = append(ops, fixedReads(0, window, w.ReadRate, poolRead)...)
	}
	if w.ProbeRate > 0 && writeEnd < window {
		// The probe starts a quarter second after the last write is due,
		// so it measures the read path on a quiescent server.
		ops = append(ops, fixedReads(writeEnd+probeGap, window, w.ProbeRate, poolWrite)...)
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].Due < ops[j].Due })
	for i := range ops {
		ops[i].Seq = i
	}
	p.Ops = ops
	return p
}

func fixedReads(from, to time.Duration, rate float64, pool int) []Op {
	var ops []Op
	step := time.Duration(float64(time.Second) / rate)
	for i, due := 0, from+step/2; due < to; i, due = i+1, due+step {
		kind := OpValues
		if i%2 == 1 {
			kind = OpTopK
		}
		ops = append(ops, Op{Kind: kind, Due: due, Pool: pool})
	}
	return ops
}

// deleteBound is the exclusive upper bound of delete indices. The block
// order keeps the stream's own n within DeleteSize of its start; up to
// conns−1 other requests may be in flight and reorder at the server, each
// removing at most DeleteSize points before this one is admitted.
func deleteBound(w Workload, conns int) int {
	return w.Train - w.DeleteSize - w.DeleteSize*conns
}

// distinctBelow draws k distinct ints from [0, hi), ascending.
func distinctBelow(rng *rand.Rand, k, hi int) []int {
	seen := make(map[int]bool, k)
	out := make([]int, 0, k)
	for len(out) < k {
		v := rng.IntN(hi)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}

// Counts tallies a plan's ops by kind.
func (p Plan) Counts() map[OpKind]int {
	c := map[OpKind]int{}
	for _, op := range p.Ops {
		c[op.Kind]++
	}
	return c
}
