package dist

import (
	"runtime"
	"testing"

	"cocco/internal/core"
	"cocco/internal/eval"
	"cocco/internal/search"
)

// BenchmarkDistFleet measures what worker processes buy: the same 4-island
// GA ring run in-process and across 4 re-executed worker processes, with
// every process pinned to one CPU (GOMAXPROCS=1; the in-process baseline
// would otherwise overlap its islands across cores and hide exactly the
// axis being measured). Process count is the scaling axis. The coordinator
// and the in-process run share one long-lived evaluator, and each worker
// keeps its own across sessions, so after the first iteration every
// contender runs against a warm cost cache.
//
// On a host with fewer than 4 CPUs the fleet sits at parity or below: the
// protocol adds serialization without adding silicon. The ≥1.8× floor is
// therefore asserted only where the benchmark process had ≥4 CPUs and more
// than one iteration was measured, like BenchmarkSearchOrchestrator's.
func BenchmarkDistFleet(b *testing.B) {
	const (
		model            = "resnet50"
		islands          = 4
		perIslandSamples = 200
	)
	cpus := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(cpus)

	opt := search.Options{
		Core: core.Options{
			Seed: 7, Workers: 1, Population: 50, MaxSamples: perIslandSamples,
			Objective: eval.Objective{Metric: eval.MetricEMA},
			Mem:       core.MemSearch{Fixed: fixedMem()},
		},
		Islands:      islands,
		MigrateEvery: 5,
	}
	ev := evaluatorFor(b, model)
	dir := b.TempDir()
	addrs := make([]string, islands)
	for i := range addrs {
		addrs[i], _ = spawnWorkerProc(b, model, dir, i)
	}

	var base float64
	measure := func(name string, run func() error) float64 {
		var rate float64
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := run(); err != nil {
					b.Fatal(err)
				}
			}
			rate = float64(islands*perIslandSamples) * float64(b.N) / b.Elapsed().Seconds()
			b.ReportMetric(rate, "samples/s")
			if base > 0 {
				ratio := rate / base
				b.ReportMetric(ratio, "x-vs-inprocess")
				if cpus >= 4 && b.N > 1 && ratio < 1.8 {
					b.Errorf("%d-process fleet only %.2fx in-process (floor 1.8x on >=4 CPUs)", islands, ratio)
				}
			}
		})
		return rate
	}
	base = measure("inprocess", func() error {
		_, _, err := search.Run(ev, opt)
		return err
	})
	measure("workers=4", func() error {
		_, _, err := Run(ev, Options{Search: opt, Workers: addrs})
		return err
	})
}
