package eval_test

// The cross-engine equivalence suite of the delta-evaluation layer: for
// every model in the zoo × both metrics × both buffer kinds, a randomized
// sequence of partition operators (TryModifyNode / TrySplit / TryMerge via
// core.ApplyRandomMutation, plus in-situ split repair) must make
// Evaluator.PartitionDelta agree bit-for-bit with a from-scratch
// Evaluator.Partition — cost sums, feasibility set, and footprints alike.
// PartitionDelta's only correctness risk is a stale or mis-carried cost
// handle, which the from-scratch path cannot share, so exact equality here
// pins the dirty-marking rules of the partition operators.

import (
	"math/rand"
	"reflect"
	"testing"

	"cocco/internal/core"
	"cocco/internal/eval"
	"cocco/internal/hw"
	"cocco/internal/models"
	"cocco/internal/partition"
	"cocco/internal/tiling"
)

// memFor returns a moderately tight memory configuration per buffer kind, so
// the sequences exercise both feasible and infeasible subgraphs.
func memFor(kind hw.BufferKind) hw.MemConfig {
	if kind == hw.SharedBuffer {
		return hw.MemConfig{Kind: hw.SharedBuffer, GlobalBytes: 1536 * hw.KiB}
	}
	return hw.MemConfig{Kind: hw.SeparateBuffer, GlobalBytes: 512 * hw.KiB, WeightBytes: 576 * hw.KiB}
}

// requireEqualResults fails unless the two results are exactly equal —
// including bit-equality of the float64 aggregates, which both evaluation
// paths must accumulate in the same order.
func requireEqualResults(t *testing.T, step int, got, want *eval.Result) {
	t.Helper()
	if got.EMABytes != want.EMABytes ||
		got.EnergyPJ != want.EnergyPJ ||
		got.LatencyCycles != want.LatencyCycles ||
		got.AvgBWBytesPerSec != want.AvgBWBytesPerSec ||
		got.MaxActFootprint != want.MaxActFootprint ||
		got.MaxWgtFootprint != want.MaxWgtFootprint ||
		got.NumSubgraphs != want.NumSubgraphs ||
		!reflect.DeepEqual(got.Infeasible, want.Infeasible) {
		t.Fatalf("step %d: delta result diverges from full recompute\n delta: %+v\n  full: %+v", step, got, want)
	}
}

// TestDeltaEquivalenceZoo is the model-zoo equivalence matrix.
func TestDeltaEquivalenceZoo(t *testing.T) {
	const steps = 12
	for _, model := range models.Names() {
		g := models.MustBuild(model)
		ev := eval.MustNew(g, hw.DefaultPlatform(), tiling.DefaultConfig())
		for _, kind := range []hw.BufferKind{hw.SeparateBuffer, hw.SharedBuffer} {
			for _, metric := range []eval.Metric{eval.MetricEMA, eval.MetricEnergy} {
				name := model + "/" + kind.String() + "/" + metric.String()
				t.Run(name, func(t *testing.T) {
					mem := memFor(kind)
					rng := rand.New(rand.NewSource(int64(len(name))*1009 + 7))
					p := core.RandomPartition(g, rng, 0.3)
					for step := 0; step <= steps; step++ {
						if step > 0 {
							p = core.ApplyRandomMutation(g, rng, p)
						}
						got := ev.PartitionDelta(p, mem)
						want := ev.Partition(p, mem)
						requireEqualResults(t, step, got, want)
						if got.MetricValue(metric) != want.MetricValue(metric) {
							t.Fatalf("step %d: metric %v differs: %g vs %g",
								step, metric, got.MetricValue(metric), want.MetricValue(metric))
						}
					}
					// The in-situ split repair drives PartitionDelta through
					// split-heavy carry chains; its final state must agree
					// with a from-scratch evaluation too.
					q, res := core.RepairInSitu(ev, rng, p, mem)
					requireEqualResults(t, -1, res, ev.Partition(q, mem))
				})
			}
		}
	}
}

// TestDeltaFallbackFreshPartition checks the full-recompute fallback: a
// partition with no carried handles (fresh or deserialized) evaluates
// identically through both engines and fills its handles for later reuse.
func TestDeltaFallbackFreshPartition(t *testing.T) {
	g := models.MustBuild("googlenet")
	ev := eval.MustNew(g, hw.DefaultPlatform(), tiling.DefaultConfig())
	mem := memFor(hw.SeparateBuffer)
	p := partition.Singletons(g)
	requireEqualResults(t, 0, ev.PartitionDelta(p, mem), ev.Partition(p, mem))
	reused := ev.DeltaStats()
	// A second delta evaluation of the same partition must come entirely
	// from carried handles.
	requireEqualResults(t, 1, ev.PartitionDelta(p, mem), ev.Partition(p, mem))
	if got := ev.DeltaStats() - reused; got != int64(p.NumSubgraphs()) {
		t.Errorf("second PartitionDelta reused %d handles, want %d", got, p.NumSubgraphs())
	}
}

// TestDeltaCrossEvaluator pins the handle-ownership rule: raw subgraph
// costs depend on the platform and tiling config, so a partition whose
// handles were filled by one evaluator (e.g. an Options.Init seed from a
// search on different hardware) must have them treated as dirty by another
// evaluator, not silently reused.
func TestDeltaCrossEvaluator(t *testing.T) {
	g := models.MustBuild("googlenet")
	mem := memFor(hw.SeparateBuffer)
	rng := rand.New(rand.NewSource(5))
	p := core.RandomPartition(g, rng, 0.3)

	evA := eval.MustNew(g, hw.DefaultPlatform(), tiling.DefaultConfig())
	evA.PartitionDelta(p, mem) // fill handles owned by evA

	// A platform with half the PE array: compute cycles (and so latency)
	// differ, while member sets are identical.
	platB := hw.DefaultPlatform()
	platB.Core.PERows = 2
	evB := eval.MustNew(g, platB, tiling.DefaultConfig())
	got := evB.PartitionDelta(p, mem)
	requireEqualResults(t, 0, got, evB.Partition(p, mem))
	if ref := evA.Partition(p, mem); got.LatencyCycles == ref.LatencyCycles {
		t.Fatalf("platforms indistinguishable (latency %d); the test lost its teeth", ref.LatencyCycles)
	}
	// And going back to evA must re-own the handles evB overwrote.
	requireEqualResults(t, 1, evA.PartitionDelta(p, mem), evA.Partition(p, mem))
}

// deltaSink keeps measured partitions on the heap, so the fresh case's
// Clone allocations are the same in both closures it subtracts.
var deltaSink *partition.Partition

// TestDeltaAllocsFlat pins PartitionDelta's allocations on a warm cache:
// carried handles cost a pointer load, dirty subgraphs are gathered and keyed
// in pooled scratch, so only the Result (plus the handle slice of a partition
// with no carried state) is allocated — independent of the subgraph count.
func TestDeltaAllocsFlat(t *testing.T) {
	if eval.RaceEnabled {
		t.Skip("race detector disables sync.Pool reuse; alloc pins are meaningless")
	}
	for _, model := range []string{"vgg16", "resnet50", "randwire-a"} {
		t.Run(model, func(t *testing.T) {
			g := models.MustBuild(model)
			ev := eval.MustNew(g, hw.DefaultPlatform(), tiling.DefaultConfig())
			// Roomy buffers: every subgraph fits, so the Result carries no
			// Infeasible slice.
			mem := hw.MemConfig{Kind: hw.SeparateBuffer, GlobalBytes: 1 << 40, WeightBytes: 1 << 40}
			fresh := core.RandomPartition(g, rand.New(rand.NewSource(3)), 0.7)
			ev.Partition(fresh, mem) // warm the cache

			// Fresh: every handle is filled from cache hits.
			base := testing.AllocsPerRun(50, func() { deltaSink = fresh.Clone() })
			allocs := testing.AllocsPerRun(50, func() {
				deltaSink = fresh.Clone()
				ev.PartitionDelta(deltaSink, mem)
			}) - base
			if allocs > 2 {
				t.Errorf("fresh PartitionDelta allocates %.1f per eval, want <= 2", allocs)
			}

			// Clean: every handle is carried.
			p := fresh.Clone()
			ev.PartitionDelta(p, mem)
			if allocs := testing.AllocsPerRun(100, func() { ev.PartitionDelta(p, mem) }); allocs != 1 {
				t.Errorf("clean PartitionDelta allocates %.1f per eval, want 1", allocs)
			}

			// One-merge child: only the merged subgraph is dirty; dropping
			// its handle each run keeps it dirty.
			var child *partition.Partition
			for a := 0; a+1 < p.NumSubgraphs() && child == nil; a++ {
				child, _ = p.TryMerge(a, a+1)
			}
			if child == nil {
				t.Fatal("no mergeable subgraph pair")
			}
			var dirty []int
			for s := 0; s < child.NumSubgraphs(); s++ {
				if child.CostHandle(s) == nil {
					dirty = append(dirty, s)
				}
			}
			if len(dirty) == 0 || len(dirty) == child.NumSubgraphs() {
				t.Fatalf("merge left %d of %d subgraphs dirty", len(dirty), child.NumSubgraphs())
			}
			allocs = testing.AllocsPerRun(100, func() {
				for _, s := range dirty {
					child.SetCostHandle(s, nil)
				}
				ev.PartitionDelta(child, mem)
			})
			if allocs != 1 {
				t.Errorf("one-merge child PartitionDelta allocates %.1f per eval, want 1", allocs)
			}
			requireEqualResults(t, 0, ev.PartitionDelta(child, mem), ev.Partition(child, mem))
		})
	}
}

// TestDeltaPrefetchEquivalence runs the matrix's separate-buffer sequence
// with the §5.1.2 weight-prefetch feasibility check enabled, which adds the
// cross-subgraph double-buffering pass to the aggregation.
func TestDeltaPrefetchEquivalence(t *testing.T) {
	g := models.MustBuild("resnet50")
	ev := eval.MustNew(g, hw.DefaultPlatform(), tiling.DefaultConfig())
	ev.EnablePrefetchCheck()
	mem := memFor(hw.SeparateBuffer)
	rng := rand.New(rand.NewSource(99))
	p := core.RandomPartition(g, rng, 0.3)
	for step := 0; step <= 16; step++ {
		if step > 0 {
			p = core.ApplyRandomMutation(g, rng, p)
		}
		requireEqualResults(t, step, ev.PartitionDelta(p, mem), ev.Partition(p, mem))
	}
}
