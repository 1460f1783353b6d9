package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cocco/internal/core"
	"cocco/internal/dse"
	"cocco/internal/eval"
	"cocco/internal/hw"
	"cocco/internal/search"
)

// sweep: one dse.Run per op over resnet50 and googlenet at four fixed
// global-buffer capacities (no memory search), two sweep workers, a small
// per-config budget and a fresh checkpoint directory per op. Configs of one
// model share a graph context and its geometry-keyed cost cache while they
// run concurrently; outcome and cache-snapshot files are written and never
// read back.
var sweepSpec = spec{
	name:     "sweep",
	seeds:    10,
	clients:  1,
	procs:    2,
	models:   []string{"resnet50", "googlenet"},
	probeOps: 16,
	newW:     func(e *env) workload { return &sweepW{env: e} },
}

const (
	sweepSamples    = 300
	sweepPopulation = 30
)

var sweepGrid = dse.Grid{
	Models:      []string{"resnet50", "googlenet"},
	GlobalBytes: []int64{512 * hw.KiB, 1024 * hw.KiB, 1536 * hw.KiB, 2048 * hw.KiB},
	WeightBytes: []int64{1152 * hw.KiB},
}

type sweepW struct {
	env *env
	n   atomic.Int64 // op directories handed out

	mu                sync.Mutex
	configGaps        []float64
	configs, feasible int
	snapshotBytes     []float64
}

func (w *sweepW) setup() error {
	_, err := sweepGrid.Configs() // validates the grid and its models
	return err
}

func (w *sweepW) op(_ int, seed int64, tr *opTrace) opOut {
	dir := filepath.Join(w.env.dir, fmt.Sprintf("op%d", w.n.Add(1)))
	cleanup := func() { os.RemoveAll(dir) }
	opt := dse.Options{
		Grid: sweepGrid,
		Search: search.Options{Core: core.Options{
			Seed:       seed,
			Population: sweepPopulation,
			MaxSamples: sweepSamples,
			Objective:  eval.Objective{Metric: eval.MetricEnergy},
		}},
		Workers:       2,
		CheckpointDir: dir,
		Warnf:         func(string, ...any) {},
	}
	var gaps []float64
	if tr != nil {
		last := time.Now()
		var gmu sync.Mutex
		opt.OnConfigDone = func(dse.Outcome) error {
			gmu.Lock()
			now := time.Now()
			gaps = append(gaps, now.Sub(last).Seconds())
			last = now
			gmu.Unlock()
			return nil
		}
	}
	done := tr.span("dse.run")
	rep, err := dse.Run(opt)
	done()
	if err != nil {
		return opOut{err: err, cleanup: cleanup}
	}
	samples, cost, nfeas := 0, 0.0, 0
	for _, o := range rep.Outcomes {
		samples += o.Samples
		if o.Feasible {
			nfeas++
		}
	}
	var emptyFront []string
	for _, m := range sweepGrid.Models {
		front := rep.ParetoFront(m)
		if len(front) == 0 {
			emptyFront = append(emptyFront, m)
			continue
		}
		best := math.Inf(1)
		for _, o := range front {
			best = math.Min(best, o.Cost)
		}
		cost += best / float64(len(sweepGrid.Models))
	}
	if tr != nil {
		var snap int64
		entries, _ := os.ReadDir(dir)
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".cache") {
				if fi, err := e.Info(); err == nil {
					snap += fi.Size()
				}
			}
		}
		w.mu.Lock()
		w.configGaps = append(w.configGaps, gaps...)
		w.configs += len(rep.Outcomes)
		w.feasible += nfeas
		w.snapshotBytes = append(w.snapshotBytes, float64(snap))
		w.mu.Unlock()
	}
	return opOut{samples: samples, cost: cost, cleanup: cleanup, check: func() error {
		if len(emptyFront) > 0 {
			return fmt.Errorf("sweep: empty Pareto front for %v", emptyFront)
		}
		return nil
	}}
}

func (w *sweepW) verify() error { return nil }

func (w *sweepW) layers() map[string]metric {
	w.mu.Lock()
	defer w.mu.Unlock()
	m := map[string]metric{}
	if w.configs == 0 {
		return m
	}
	m["dse.config_s_p50"] = metric{median(w.configGaps), "s"}
	if p90, err := tailPercentile(w.configGaps, 0.9); err == nil {
		m["dse.config_s_p90"] = metric{p90, "s"}
	}
	m["dse.feasible_config_ratio"] = metric{float64(w.feasible) / float64(w.configs), "ratio"}
	m["dse.snapshot_bytes"] = metric{median(w.snapshotBytes), "B"}
	return m
}

func (w *sweepW) close() {}
