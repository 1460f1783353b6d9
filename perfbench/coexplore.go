package main

import (
	"fmt"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"time"

	"cocco/internal/core"
	"cocco/internal/eval"
	"cocco/internal/graph"
	"cocco/internal/hw"
	"cocco/internal/models"
	"cocco/internal/partition"
	"cocco/internal/search"
	"cocco/internal/tiling"
)

// coexplore: one direct search.Run per op with memory co-exploration on
// randwire-a, each op on a fresh evaluator so its cost cache starts cold, as
// a cocco CLI run does. No disk, HTTP or wire traffic: this is the hot
// per-sample loop (core, partition, eval cold and delta costing, mem-DSE
// mutation).
var coexploreSpec = spec{
	name:     "coexplore",
	seeds:    20,
	clients:  1,
	procs:    1,
	models:   []string{"randwire-a"},
	probeOps: 10,
	newW:     func(*env) workload { return &coexplore{} },
}

const coexploreSamples = 2000

type coexplore struct {
	g *graph.Graph

	// Traced-op accumulators.
	mu                       sync.Mutex
	initStep, steps          []float64
	samples, calls, hits     int64
	deltaReused, entries     int64
	feasible, memoHits, nops int64
	mallocs, gcCycles        uint64
	gcPause                  time.Duration
	coldPart, warmPart       []float64
}

func coexploreOptions(seed int64) search.Options {
	return search.Options{
		Core: core.Options{
			Seed:       seed,
			Workers:    1,
			MaxSamples: coexploreSamples,
			Objective:  eval.Objective{Metric: eval.MetricEnergy, Alpha: 0.002},
			Mem: core.MemSearch{
				Search: true,
				Kind:   hw.SeparateBuffer,
				Global: hw.PaperGlobalRange(),
				Weight: hw.PaperWeightRange(),
			},
		},
		Islands: 1,
	}
}

func (w *coexplore) setup() error {
	g, err := models.Build("randwire-a")
	w.g = g
	return err
}

func (w *coexplore) op(_ int, seed int64, tr *opTrace) opOut {
	opt := coexploreOptions(seed)
	if tr != nil {
		return w.tracedOp(opt, tr)
	}
	ev, err := eval.New(w.g, hw.DefaultPlatform(), tiling.DefaultConfig())
	if err != nil {
		return opOut{err: err}
	}
	best, st, err := search.Run(ev, opt)
	if err != nil {
		return opOut{err: err}
	}
	return opOut{samples: st.Samples, cost: best.Cost, check: w.checkBest(best, opt)}
}

// tracedOp drives core.NewOptimizer + Step, which is what 1-island
// search.Run does, timing the initial-population step and every generation.
func (w *coexplore) tracedOp(opt search.Options, tr *opTrace) opOut {
	done := tr.span("eval.new")
	ev, err := eval.New(w.g, hw.DefaultPlatform(), tiling.DefaultConfig())
	done()
	if err != nil {
		return opOut{err: err}
	}
	copt := opt.Core
	o, err := core.NewOptimizer(ev, copt)
	if err != nil {
		return opOut{err: err}
	}
	before := readGC()
	var steps []float64
	t0 := time.Now()
	done = tr.span("core.init_step")
	more := o.Step()
	done()
	initStep := time.Since(t0).Seconds()
	for more {
		t := time.Now()
		done = tr.span("core.step")
		more = o.Step()
		done()
		steps = append(steps, time.Since(t).Seconds())
	}
	after := readGC()
	pop := o.Population()
	best, st, err := o.Finish()
	if err != nil {
		return opOut{err: err}
	}
	hits, calls := ev.CacheStats()

	w.mu.Lock()
	w.initStep = append(w.initStep, initStep)
	w.steps = append(w.steps, steps...)
	w.samples += int64(st.Samples)
	w.calls += calls
	w.hits += hits
	w.deltaReused += ev.DeltaStats()
	w.entries += ev.CacheEntries()
	w.feasible += int64(st.FeasibleSamples)
	w.memoHits += int64(st.MemoHits)
	w.nops++
	w.mallocs += after.mallocs - before.mallocs
	w.gcCycles += after.cycles - before.cycles
	w.gcPause += after.pause - before.pause
	w.mu.Unlock()
	return opOut{samples: st.Samples, cost: best.Cost, check: w.checkBest(best, opt),
		cleanup: func() { w.probePartition(pop) }}
}

// probePartition times full costing of an op's final population, first on
// a fresh evaluator (cold) and then again on the same one (warm). It runs
// as the op's cleanup, outside the op's latency.
func (w *coexplore) probePartition(pop []*core.Genome) {
	fresh, err := eval.New(w.g, hw.DefaultPlatform(), tiling.DefaultConfig())
	if err != nil {
		return
	}
	t := time.Now()
	for _, gn := range pop {
		fresh.Partition(gn.P, gn.Mem)
	}
	cold := time.Since(t).Seconds()
	t = time.Now()
	for _, gn := range pop {
		fresh.Partition(gn.P, gn.Mem)
	}
	warm := time.Since(t).Seconds()
	w.mu.Lock()
	w.coldPart = append(w.coldPart, cold)
	w.warmPart = append(w.warmPart, warm)
	w.mu.Unlock()
}

// gcCounters are the process's cumulative allocation and collection counts.
type gcCounters struct {
	mallocs, cycles uint64
	pause           time.Duration
}

// readGC reads the counters without stopping the world, unlike
// runtime.ReadMemStats, so a traced op pays little for them.
func readGC() gcCounters {
	// Mallocs in runtime.MemStats counts tiny allocations too.
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"}}
	metrics.Read(s)
	var gs debug.GCStats
	debug.ReadGCStats(&gs)
	return gcCounters{
		mallocs: s[0].Value.Uint64() + s[1].Value.Uint64(),
		cycles:  uint64(gs.NumGC),
		pause:   gs.PauseTotal,
	}
}

// checkBest keeps only the best genome's assignment and memory and returns
// the op's check: the genome is feasible, and a fresh evaluator re-costs it
// to exactly the reported cost.
func (w *coexplore) checkBest(best *core.Genome, opt search.Options) func() error {
	assign := best.P.Assignment()
	mem, cost := best.Mem, best.Cost
	feasible := best.Res != nil && best.Res.Feasible()
	return func() error {
		if !feasible {
			return fmt.Errorf("coexplore: best genome is infeasible")
		}
		return recost(w.g, assign, mem, cost, opt.Core.Objective)
	}
}

// recost rebuilds a genome on a fresh evaluator and checks its cost.
func recost(g *graph.Graph, assign []int, mem hw.MemConfig, cost float64, obj eval.Objective) error {
	p, err := partition.From(g, assign)
	if err != nil {
		return err
	}
	ev, err := eval.New(g, hw.DefaultPlatform(), tiling.DefaultConfig())
	if err != nil {
		return err
	}
	got, res := ev.Cost(p, mem, obj)
	if !res.Feasible() {
		return fmt.Errorf("%s: re-costed genome is infeasible", g.Name)
	}
	if got != cost {
		return fmt.Errorf("%s: re-costed genome costs %v, search reported %v", g.Name, got, cost)
	}
	return nil
}

func (w *coexplore) verify() error { return nil }

func (w *coexplore) layers() map[string]metric {
	w.mu.Lock()
	defer w.mu.Unlock()
	m := map[string]metric{}
	if w.nops == 0 {
		return m
	}
	n, s := float64(w.nops), float64(w.samples)
	m["core.init_step_s"] = metric{median(w.initStep), "s"}
	m["core.step_s_p50"] = metric{median(w.steps), "s"}
	if p90, err := tailPercentile(w.steps, 0.9); err == nil {
		m["core.step_s_p90"] = metric{p90, "s"}
	}
	m["core.memo_hit_ratio"] = metric{float64(w.memoHits) / s, "ratio"}
	m["core.feasible_ratio"] = metric{float64(w.feasible) / s, "ratio"}
	m["core.allocs_per_sample"] = metric{float64(w.mallocs) / s, "allocs/sample"}
	m["core.gc_cycles_per_op"] = metric{float64(w.gcCycles) / n, "cycles/op"}
	m["core.gc_pause_s_per_op"] = metric{w.gcPause.Seconds() / n, "s"}
	m["eval.calls_per_sample"] = metric{float64(w.calls) / s, "calls/sample"}
	m["eval.cache_hit_ratio"] = metric{float64(w.hits) / float64(w.calls), "ratio"}
	m["eval.cold_computes_per_op"] = metric{float64(w.calls-w.hits) / n, "computes/op"}
	m["eval.delta_reused_per_sample"] = metric{float64(w.deltaReused) / s, "reuses/sample"}
	m["eval.cache_entries"] = metric{float64(w.entries) / n, "entries"}
	m["eval.cold_partition_s"] = metric{median(w.coldPart), "s"}
	m["eval.warm_partition_s"] = metric{median(w.warmPart), "s"}
	return m
}

func (w *coexplore) close() {}
