package eval

import (
	"fmt"
	"sync"
	"testing"

	"cocco/internal/graph"
	"cocco/internal/models"
)

// windows enumerates the contiguous compute-node windows of a chain-shaped
// model: every [i, j) slice of the topological compute order. On a pure
// chain (vgg16) each window is a connected subgraph, and all windows are
// pairwise distinct member sets — a supply of cold keys for alloc pins and
// race stress.
func windows(g *graph.Graph) [][]int {
	ids := g.ComputeIDs()
	var out [][]int
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j <= len(ids); j++ {
			out = append(out, append([]int(nil), ids[i:j]...))
		}
	}
	return out
}

// TestColdPathAllocs pins the tentpole contract: a steady-state cold
// evaluation (distinct member set, full computeSubgraph + tiling derivation
// + cache insert) performs at most a small constant number of allocations
// once the scratch pools are warm. The budget covers the SubgraphCost, its
// owned member slice, and amortized cache growth (slot table, entry array and
// key arena).
func TestColdPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector disables sync.Pool reuse; alloc pins are meaningless")
	}
	g := models.MustBuild("vgg16")
	ev := testEvaluator(t, g)
	subs := windows(g)
	if len(subs) < 110 {
		t.Fatalf("only %d windows; need more distinct cold subgraphs", len(subs))
	}
	// Warm the scratch pools (deriver adj buffers, marks) on a few windows
	// computed by a second evaluator so ev's cache stays cold for them... the
	// pool is per-evaluator, so warm ev itself on the last few windows.
	for _, m := range subs[len(subs)-8:] {
		ev.Subgraph(m)
	}
	subs = subs[:len(subs)-8]
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		c := ev.Subgraph(subs[i%len(subs)])
		if c.Err != nil {
			t.Fatal(c.Err)
		}
		i++
	})
	if allocs > 8 {
		t.Errorf("cold path allocates %.1f per subgraph, want <= 8", allocs)
	}

	// And the warm path (same member sets, now cached) must be allocation
	// free: the sort + key build happen entirely in pooled scratch.
	i = 0
	warm := testing.AllocsPerRun(100, func() {
		ev.Subgraph(subs[i%len(subs)])
		i++
	})
	if warm != 0 {
		t.Errorf("warm Subgraph allocates %.1f, want 0", warm)
	}
}

// TestColdMissRaceKeepsFirst pins the duplicate-compute race fix: goroutines
// missing concurrently on the same cold key may each compute the cost, but
// the insert re-checks under the write lock and keeps the first inserted
// *SubgraphCost — every caller must observe the SAME pointer, because delta
// handles cache these pointers and entry identity must be stable.
func TestColdMissRaceKeepsFirst(t *testing.T) {
	g := models.MustBuild("vgg16")
	subs := windows(g)
	const goroutines = 16
	for round := 0; round < 20; round++ {
		ev := testEvaluator(t, g) // fresh cache: every key cold
		got := make([][]*SubgraphCost, goroutines)
		var start, wg sync.WaitGroup
		start.Add(1)
		for w := 0; w < goroutines; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				start.Wait()
				res := make([]*SubgraphCost, len(subs))
				for i, m := range subs {
					res[i] = ev.Subgraph(m)
				}
				got[w] = res
			}(w)
		}
		start.Done()
		wg.Wait()
		for w := 1; w < goroutines; w++ {
			for i := range subs {
				if got[w][i] != got[0][i] {
					t.Fatalf("round %d: goroutine %d got a different *SubgraphCost for window %d", round, w, i)
				}
			}
		}
		if entries := ev.CacheEntries(); entries != int64(len(subs)) {
			t.Fatalf("round %d: %d cache entries, want %d (duplicate insert?)", round, entries, len(subs))
		}
	}
}

// TestColdStressDisjoint hammers one evaluator from 16 goroutines with
// DISJOINT cold member sets — no shared keys, so every goroutine drives the
// full cold path (scratch pool, deriver, open-addressed insert incl. table
// growth and arena reallocation) concurrently. Run under -race in CI; the
// assertions here check pointer stability across growth.
func TestColdStressDisjoint(t *testing.T) {
	g := models.MustBuild("resnet152")
	ev := testEvaluator(t, g)
	ids := g.ComputeIDs()
	const goroutines = 16
	// Partition the singleton + pair key space among goroutines.
	perG := make([][][]int, goroutines)
	for i := 0; i < len(ids); i++ {
		w := i % goroutines
		perG[w] = append(perG[w], []int{ids[i]})
		if i+1 < len(ids) {
			perG[w] = append(perG[w], []int{ids[i], ids[i+1]})
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			first := make([]*SubgraphCost, len(perG[w]))
			for round := 0; round < 8; round++ {
				for i, m := range perG[w] {
					c := ev.Subgraph(m)
					if round == 0 {
						first[i] = c
						continue
					}
					if c != first[i] {
						errs[w] = fmt.Errorf("goroutine %d: pointer for set %v changed across rounds", w, m)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	want := int64(len(ids) + len(ids) - 1)
	if entries := ev.CacheEntries(); entries != want {
		t.Fatalf("%d cache entries, want %d", entries, want)
	}
}
