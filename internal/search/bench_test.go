package search

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"cocco/internal/core"
	"cocco/internal/eval"
)

// BenchmarkSearchOrchestrator measures aggregate search throughput as the
// island count grows: K islands each run the same per-island sample budget
// over one shared evaluator, so the aggregate work scales with K while the
// wall clock is paid once per round of concurrent island steps. Two real
// effects drive the scaling:
//
//   - islands step concurrently, so on a multi-core host the GA's serial
//     phases (candidate generation, ordered commit) overlap across islands
//     — the single-population Amdahl ceiling the PR-1 worker pool could
//     never pass;
//   - the shared cost cache amortizes cold subgraph derivations across
//     islands, so even a single-core host gains whenever islands visit
//     overlapping subgraphs.
//
// The ≥2× floor at 4 islands is asserted only when the host actually has
// ≥4 CPUs (like the race-gated alloc pins, hardware-dependent floors are
// not asserted where the hardware cannot express them); the measured
// ratios are always reported.
func BenchmarkSearchOrchestrator(b *testing.B) {
	const perIslandSamples = 1000
	type key struct {
		model   string
		islands int
	}
	var mu sync.Mutex
	rates := map[key]float64{}

	for _, model := range []string{"resnet50", "googlenet", "nasnet"} {
		for _, islands := range []int{1, 2, 4} {
			name := fmt.Sprintf("model=%s/islands=%d", model, islands)
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ev := evaluatorFor(b, model)
					opt := Options{
						Core: core.Options{
							Seed: 7, Population: 50, MaxSamples: perIslandSamples,
							Objective: eval.Objective{Metric: eval.MetricEMA},
							Mem:       core.MemSearch{Fixed: fixedMem()},
						},
						Islands:      islands,
						MigrateEvery: 5,
					}
					if _, _, err := Run(ev, opt); err != nil {
						b.Fatal(err)
					}
				}
				rate := float64(islands*perIslandSamples) * float64(b.N) / b.Elapsed().Seconds()
				b.ReportMetric(rate, "samples/s")
				mu.Lock()
				rates[key{model, islands}] = rate
				mu.Unlock()

				if islands == 4 {
					base := rates[key{model, 1}]
					if base > 0 {
						ratio := rate / base
						b.ReportMetric(ratio, "x-vs-1-island")
						// The floor only means something where islands can
						// actually overlap (≥4 CPUs) and with more than one
						// measured iteration — CI's -benchtime=1x smoke run
						// is a single cold-start sample, far too noisy to
						// gate on.
						if runtime.GOMAXPROCS(0) >= 4 && b.N > 1 && ratio < 2 {
							b.Errorf("%s: aggregate throughput only %.2fx the single island (floor 2x on >=4 CPUs)",
								name, ratio)
						}
					}
				}
			})
		}
	}
}
