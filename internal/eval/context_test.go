package eval_test

// Shared-context equivalence suite: evaluators built from one shared
// eval.GraphContext must be bit-identical to standalone eval.New evaluators
// for the same (graph, platform, tiling config) — across the model zoo,
// several platforms, both buffer kinds, and under concurrent construction
// and evaluation. This is the contract the batched multi-config DSE driver
// (internal/dse) rests on: it fans hundreds of evaluators out of one
// context and must get exactly the numbers a from-scratch sweep would.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"cocco/internal/core"
	"cocco/internal/eval"
	"cocco/internal/hw"
	"cocco/internal/models"
	"cocco/internal/partition"
	"cocco/internal/tiling"
)

// sweepPlatforms are the platform variants the equivalence matrix covers:
// the DSE sweep axes that share a core geometry (cores, batch) plus one
// variant with a different core, which must miss the context's cycle-table
// memo and still agree.
func sweepPlatforms() []hw.Platform {
	def := hw.DefaultPlatform()
	quad := hw.DefaultPlatform()
	quad.Cores = 4
	batched := hw.DefaultPlatform()
	batched.Cores = 2
	batched.Batch = 8
	smallCore := hw.DefaultPlatform()
	smallCore.Core.PERows = 2
	smallCore.Core.MACRows = 4
	return []hw.Platform{def, quad, batched, smallCore}
}

// seededPartitions returns a deterministic set of random partitions plus a
// few mutated descendants, shared by every evaluator under test.
func seededPartitions(t *testing.T, model string, n int) []*partition.Partition {
	t.Helper()
	g := models.MustBuild(model)
	rng := rand.New(rand.NewSource(int64(len(model))*2027 + 13))
	out := make([]*partition.Partition, 0, n)
	p := core.RandomPartition(g, rng, 0.3)
	out = append(out, p)
	for len(out) < n {
		p = core.ApplyRandomMutation(g, rng, p)
		out = append(out, p)
	}
	return out
}

// TestSharedContextEquivalenceZoo pins exact Result equality between fresh
// eval.New evaluators and evaluators sharing one GraphContext, over the
// model zoo × platform variants × both buffer kinds.
func TestSharedContextEquivalenceZoo(t *testing.T) {
	for _, model := range models.Names() {
		t.Run(model, func(t *testing.T) {
			g := models.MustBuild(model)
			gc := eval.NewGraphContext(g, tiling.DefaultConfig())
			parts := seededPartitions(t, model, 4)
			for pi, platform := range sweepPlatforms() {
				fresh, err := eval.New(g, platform, tiling.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				// Two shared-context evaluators per platform: the second
				// exercises construction against a warm cycle-table memo.
				for n := 0; n < 2; n++ {
					shared, err := gc.NewEvaluator(platform)
					if err != nil {
						t.Fatal(err)
					}
					for _, kind := range []hw.BufferKind{hw.SeparateBuffer, hw.SharedBuffer} {
						mem := memFor(kind)
						for step, p := range parts {
							want := fresh.Partition(p, mem)
							got := shared.Partition(p, mem)
							requireEqualResults(t, step, got, want)
							// The delta engine must agree through carried
							// handles too; clone so handle state stays
							// evaluator-local.
							gotDelta := shared.PartitionDelta(p.Clone(), mem)
							requireEqualResults(t, step, gotDelta, want)
						}
					}
				}
				_ = pi
			}
		})
	}
}

// TestSharedContextSubgraphIdentity checks the per-subgraph layer directly:
// raw SubgraphCost fields from a shared-context evaluator match a standalone
// evaluator field-for-field. A standalone evaluator owns a private context,
// so across that boundary pointer identity is NOT expected — values are.
// WITHIN one context the cost cache is shared per core geometry, so two
// sibling evaluators must return the very same *SubgraphCost pointer, while
// a different-geometry evaluator must not share entries.
func TestSharedContextSubgraphIdentity(t *testing.T) {
	g := models.MustBuild("googlenet")
	gc := eval.NewGraphContext(g, tiling.DefaultConfig())
	platform := hw.DefaultPlatform()
	fresh := eval.MustNew(g, platform, tiling.DefaultConfig())
	shared := gc.MustNewEvaluator(platform)
	sibling := platform
	sibling.Cores = 4
	sibling.Batch = 8
	sharedSib := gc.MustNewEvaluator(sibling)
	otherGeom := platform
	otherGeom.Core.PERows = 2
	sharedOther := gc.MustNewEvaluator(otherGeom)
	for _, p := range seededPartitions(t, "googlenet", 2) {
		for _, members := range p.Subgraphs() {
			a := fresh.Subgraph(members)
			b := shared.Subgraph(members)
			if a.WeightBytes != b.WeightBytes || a.InBytes != b.InBytes ||
				a.OutBytes != b.OutBytes || a.ActFootprint != b.ActFootprint ||
				a.MACs != b.MACs || a.ComputeCycles != b.ComputeCycles ||
				a.GLBAccessBytes != b.GLBAccessBytes || (a.Err == nil) != (b.Err == nil) {
				t.Fatalf("subgraph %v: shared-context cost diverges\n fresh: %+v\nshared: %+v", members, a, b)
			}
			if s := sharedSib.Subgraph(members); s != b {
				t.Fatalf("subgraph %v: same-geometry sibling returned a distinct *SubgraphCost", members)
			}
			if o := sharedOther.Subgraph(members); o == b {
				t.Fatalf("subgraph %v: different-geometry evaluator shared a cache entry", members)
			}
		}
	}
	// The sibling resolved everything from the shared cache: pure hits.
	hits, calls := sharedSib.CacheStats()
	if hits != calls || calls == 0 {
		t.Fatalf("sibling evaluator: %d hits of %d calls, want all hits", hits, calls)
	}
}

// TestSharedCacheCrossConfigEquivalenceZoo is the zoo-wide shared-vs-fresh
// pin for the geometry-keyed shared cache: sibling evaluators (same core
// geometry, different cores/batch) are evaluated INTERLEAVED, so almost
// every subgraph one config costs is served warm to the others from entries
// it never computed itself, and every Result must still equal a fresh
// standalone evaluator's bit for bit — including the delta engine reusing
// handles a sibling filled.
func TestSharedCacheCrossConfigEquivalenceZoo(t *testing.T) {
	siblings := func() []hw.Platform {
		a := hw.DefaultPlatform()
		b := hw.DefaultPlatform()
		b.Cores = 4
		c := hw.DefaultPlatform()
		c.Cores = 2
		c.Batch = 8
		return []hw.Platform{a, b, c}
	}()
	for _, model := range models.Names() {
		t.Run(model, func(t *testing.T) {
			g := models.MustBuild(model)
			gc := eval.NewGraphContext(g, tiling.DefaultConfig())
			parts := seededPartitions(t, model, 4)
			var fresh, shared []*eval.Evaluator
			for _, platform := range siblings {
				fresh = append(fresh, eval.MustNew(g, platform, tiling.DefaultConfig()))
				shared = append(shared, gc.MustNewEvaluator(platform))
			}
			mem := memFor(hw.SeparateBuffer)
			for step, p := range parts {
				// Interleave: config i sees partition step after configs
				// 0..i-1 already costed its subgraphs into the shared cache.
				for i := range siblings {
					want := fresh[i].Partition(p, mem)
					got := shared[i].Partition(p, mem)
					requireEqualResults(t, step*len(siblings)+i, got, want)
					gotDelta := shared[i].PartitionDelta(p.Clone(), mem)
					requireEqualResults(t, step*len(siblings)+i, gotDelta, want)
				}
			}
			// Configs after the first ran warm: sibling hit rates prove the
			// cache was actually shared rather than silently private.
			if hits, calls := shared[len(shared)-1].CacheStats(); hits != calls || calls == 0 {
				t.Fatalf("last sibling: %d hits of %d calls, want all warm hits", hits, calls)
			}
		})
	}
}

// TestSharedCacheDeltaHandlesAcrossSiblings pins the handle ownership rule
// (a cost is reused only by evaluators of the cache that holds it): a
// partition whose handles were filled by one evaluator keeps them warm
// when a same-geometry sibling evaluates it (same shared cache), while a
// different-geometry evaluator treats them as dirty and recomputes — costs
// never cross geometries through a migrating partition.
func TestSharedCacheDeltaHandlesAcrossSiblings(t *testing.T) {
	g := models.MustBuild("googlenet")
	gc := eval.NewGraphContext(g, tiling.DefaultConfig())
	base := hw.DefaultPlatform()
	sibling := base
	sibling.Cores = 4
	otherGeom := base
	otherGeom.Core.PERows = 2
	mem := memFor(hw.SeparateBuffer)

	e1 := gc.MustNewEvaluator(base)
	e2 := gc.MustNewEvaluator(sibling)
	e3 := gc.MustNewEvaluator(otherGeom)
	for step, p := range seededPartitions(t, "googlenet", 3) {
		e1.PartitionDelta(p, mem) // fills p's handles against the shared cache
		want2 := eval.MustNew(g, sibling, tiling.DefaultConfig()).Partition(p, mem)
		requireEqualResults(t, step, e2.PartitionDelta(p, mem), want2)
		// The sibling resolved the partition purely through carried handles
		// and shared entries: no cold calls of its own.
		if hits, calls := e2.CacheStats(); hits != calls {
			t.Fatalf("sibling evaluator went cold: %d hits of %d calls", hits, calls)
		}
		want3 := eval.MustNew(g, otherGeom, tiling.DefaultConfig()).Partition(p, mem)
		requireEqualResults(t, step, e3.PartitionDelta(p, mem), want3)
	}
}

// TestSharedCacheConcurrentSiblings is the race-gated cross-evaluator
// sharing stress (run under -race in CI): sibling evaluators hammer one
// shared cost cache from many goroutines over overlapping subgraphs, with
// cold misses, warm hits, and keep-first insert races all in flight. Every
// returned pointer for one key must be identical across evaluators, and
// every value must match a serially computed standalone reference.
func TestSharedCacheConcurrentSiblings(t *testing.T) {
	const workers = 8
	g := models.MustBuild("googlenet")
	gc := eval.NewGraphContext(g, tiling.DefaultConfig())
	var subs [][]int
	for _, p := range seededPartitions(t, "googlenet", 3) {
		subs = append(subs, p.Subgraphs()...)
	}
	ref := eval.MustNew(g, hw.DefaultPlatform(), tiling.DefaultConfig())
	want := make([]*eval.SubgraphCost, len(subs))
	for i, m := range subs {
		want[i] = ref.Subgraph(m)
	}

	got := make([][]*eval.SubgraphCost, workers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		platform := hw.DefaultPlatform()
		platform.Cores = 1 + w%3 // siblings: geometry identical, cores vary
		ev := gc.MustNewEvaluator(platform)
		got[w] = make([]*eval.SubgraphCost, len(subs))
		wg.Add(1)
		go func(w int, ev *eval.Evaluator) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) * 7919))
			<-start
			for _, i := range rng.Perm(len(subs)) {
				got[w][i] = ev.Subgraph(subs[i])
			}
		}(w, ev)
	}
	close(start)
	wg.Wait()

	for i := range subs {
		first := got[0][i]
		if first.ComputeCycles != want[i].ComputeCycles || first.EMABytes() != want[i].EMABytes() {
			t.Fatalf("subgraph %d: concurrent shared cost diverges from reference", i)
		}
		for w := 1; w < workers; w++ {
			if got[w][i] != first {
				t.Fatalf("subgraph %d: evaluators %d and 0 hold distinct *SubgraphCost — keep-first broken", i, w)
			}
		}
	}
	if n, wantN := gc.MustNewEvaluator(hw.DefaultPlatform()).CacheEntries(), int64(len(dedupKeys(subs))); n != wantN {
		t.Fatalf("shared cache holds %d entries, want %d", n, wantN)
	}
}

// dedupKeys collapses duplicate member sets (seeded partitions share many
// subgraphs) to the distinct cache keys they occupy.
func dedupKeys(subs [][]int) map[string]bool {
	seen := make(map[string]bool)
	for _, m := range subs {
		seen[fmt.Sprint(m)] = true
	}
	return seen
}

// TestSharedContextInvalidTiling pins that an invalid tiling config behaves
// identically through both construction paths: not a constructor error, but
// a per-subgraph derivation failure.
func TestSharedContextInvalidTiling(t *testing.T) {
	g := models.MustBuild("resnet50")
	bad := tiling.Config{BaseTileH: 0, BaseTileW: 2}
	gc := eval.NewGraphContext(g, bad)
	shared, err := gc.NewEvaluator(hw.DefaultPlatform())
	if err != nil {
		t.Fatalf("invalid tiling config must not fail construction: %v", err)
	}
	fresh := eval.MustNew(g, hw.DefaultPlatform(), bad)
	members := g.ComputeIDs()[:2]
	cs, cf := shared.Subgraph(members), fresh.Subgraph(members)
	if cs.Err == nil || cf.Err == nil {
		t.Fatal("invalid tiling config must surface as a subgraph error")
	}
	if cs.Err.Error() != cf.Err.Error() {
		t.Fatalf("error text diverges: %q vs %q", cs.Err, cf.Err)
	}
}

// TestSharedContextConcurrentSweep is the concurrent-sweep stress test (run
// under -race in CI): many goroutines simultaneously build evaluators from
// one shared context — hitting the cycle-table memo from all sides — and
// evaluate a common partition set under per-goroutine platforms and memory
// configs. Every goroutine's results must match the standalone evaluator
// for its configuration.
func TestSharedContextConcurrentSweep(t *testing.T) {
	const sweepers = 8
	g := models.MustBuild("googlenet")
	gc := eval.NewGraphContext(g, tiling.DefaultConfig())
	parts := seededPartitions(t, "googlenet", 3)
	platforms := sweepPlatforms()

	// Reference results from standalone evaluators, computed serially.
	type cfg struct {
		platform hw.Platform
		mem      hw.MemConfig
	}
	cfgs := make([]cfg, sweepers)
	want := make([][]*eval.Result, sweepers)
	for i := range cfgs {
		platform := platforms[i%len(platforms)]
		mem := memFor(hw.SeparateBuffer)
		if i%2 == 1 {
			mem = memFor(hw.SharedBuffer)
		}
		mem.GlobalBytes += int64(i/2) * 64 * hw.KiB // distinct capacities across the sweep
		cfgs[i] = cfg{platform, mem}
		fresh := eval.MustNew(g, platform, tiling.DefaultConfig())
		for _, p := range parts {
			want[i] = append(want[i], fresh.Partition(p, mem))
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, sweepers)
	for i := 0; i < sweepers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			shared, err := gc.NewEvaluator(cfgs[i].platform)
			if err != nil {
				errs <- err
				return
			}
			for rep := 0; rep < 2; rep++ { // second pass hits the warm cache
				for pi, p := range parts {
					got := shared.Partition(p, cfgs[i].mem)
					w := want[i][pi]
					if got.EMABytes != w.EMABytes || got.EnergyPJ != w.EnergyPJ ||
						got.LatencyCycles != w.LatencyCycles ||
						got.MaxActFootprint != w.MaxActFootprint ||
						got.MaxWgtFootprint != w.MaxWgtFootprint {
						errs <- fmt.Errorf("sweeper %d partition %d: concurrent shared-context result diverges", i, pi)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
