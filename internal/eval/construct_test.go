package eval

import (
	"testing"

	"cocco/internal/hw"
	"cocco/internal/models"
	"cocco/internal/tiling"
)

// TestWarmNewEvaluatorAllocs pins why a DSE sweep builds evaluators from one
// shared GraphContext instead of calling New per config: once the context
// holds the cycle table and cost cache for a core geometry, NewEvaluator is
// two allocations (the Evaluator and its scratch-pool closure) on every zoo
// model, whatever its size. Any per-node table rebuilt at construction would
// show up here as allocations that grow with the graph.
func TestWarmNewEvaluatorAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector disables sync.Pool reuse; alloc pins are meaningless")
	}
	p := hw.DefaultPlatform()
	for _, name := range models.Names() {
		gc := NewGraphContext(models.MustBuild(name), tiling.DefaultConfig())
		gc.MustNewEvaluator(p) // warm: cycle table and cost cache registered
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := gc.NewEvaluator(p); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("%s: warm NewEvaluator allocates %.1f per call, want <= 2", name, allocs)
		}
	}
}
