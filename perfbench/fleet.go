package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"cocco/internal/core"
	"cocco/internal/eval"
	"cocco/internal/graph"
	"cocco/internal/hw"
	"cocco/internal/models"
	"cocco/internal/search"
	"cocco/internal/search/dist"
	"cocco/internal/tiling"
)

// fleet: dist.Run with four GA islands over two in-process dist.Serve
// workers on loopback listeners the benchmark owns. Every op uses one fixed
// seed and the warm-up op warms each worker's evaluator, so costing is
// almost all cache hits and the op is dominated by frame encode/decode and
// barrier waits.
var fleetSpec = spec{
	name:     "fleet",
	seeds:    1,
	clients:  1,
	procs:    1,
	models:   []string{fleetModel},
	probeOps: 10,
	newW:     func(e *env) workload { return &fleetW{env: e} },
}

const (
	fleetModel      = "googlenet"
	fleetSamples    = 800 // per island
	fleetPopulation = 40
	fleetWorkers    = 2 // dist.Serve workers, one island pair each
)

func fleetOptions(seed int64) search.Options {
	return search.Options{
		Core: core.Options{
			Seed:       seed,
			Workers:    1,
			Population: fleetPopulation,
			MaxSamples: fleetSamples,
			Objective:  eval.Objective{Metric: eval.MetricEnergy},
			Mem: core.MemSearch{Kind: hw.SeparateBuffer, Fixed: hw.MemConfig{
				Kind: hw.SeparateBuffer, GlobalBytes: 1024 * hw.KiB, WeightBytes: 1152 * hw.KiB,
			}},
		},
		Islands:      4,
		MigrateEvery: 2,
	}
}

type fleetW struct {
	env   *env
	g     *graph.Graph
	coord *eval.Evaluator
	lns   []net.Listener
	addrs []string
	stats []*connStats // per worker; empty when untraced
	wg    sync.WaitGroup

	refOnce sync.Once
	ref     struct {
		cost    float64
		samples int
		err     error
	}

	mu                                     sync.Mutex
	frames, bytesPerRound, readWait, opLat []float64
	payloads                               [][]byte
}

func (w *fleetW) setup() error {
	g, err := models.Build(fleetModel)
	if err != nil {
		return err
	}
	w.g = g
	if w.coord, err = eval.New(g, hw.DefaultPlatform(), tiling.DefaultConfig()); err != nil {
		return err
	}
	for i := 0; i < fleetWorkers; i++ {
		ev, err := eval.New(g, hw.DefaultPlatform(), tiling.DefaultConfig())
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		w.addrs = append(w.addrs, ln.Addr().String())
		if w.env.traced {
			st := &connStats{capture: true}
			w.stats = append(w.stats, st)
			ln = &countingListener{Listener: ln, stats: st}
		}
		w.lns = append(w.lns, ln)
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			// Serve returns once close() closes the listener.
			_ = dist.Serve(ln, ev, 1)
		}()
	}
	return nil
}

func (w *fleetW) op(_ int, seed int64, tr *opTrace) opOut {
	opt := fleetOptions(seed)
	// dist.Run dials each worker afresh, so only a traced op's connections
	// are counted and captured.
	for _, st := range w.stats {
		st.reset()
		st.on.Store(tr != nil)
	}
	t0 := time.Now()
	done := tr.span("dist.run")
	best, st, err := dist.Run(w.coord, dist.Options{Search: opt, Workers: w.addrs, IOTimeout: time.Minute})
	done()
	lat := time.Since(t0).Seconds()
	if err != nil {
		return opOut{err: err}
	}
	if tr != nil {
		w.noteTraced(st, lat)
	}
	cost, samples := best.Cost, st.Samples
	return opOut{samples: samples, cost: cost, check: func() error {
		w.refOnce.Do(func() {
			ev, err := eval.New(w.g, hw.DefaultPlatform(), tiling.DefaultConfig())
			if err != nil {
				w.ref.err = err
				return
			}
			b, s, err := search.Run(ev, opt)
			if err != nil {
				w.ref.err = err
				return
			}
			w.ref.cost, w.ref.samples = b.Cost, s.Samples
		})
		if w.ref.err != nil {
			return w.ref.err
		}
		if cost != w.ref.cost || samples != w.ref.samples {
			return fmt.Errorf("fleet: cost %v over %d samples, in-process search.Run gives %v over %d",
				cost, samples, w.ref.cost, w.ref.samples)
		}
		return nil
	}}
}

// noteTraced records the op's wire traffic from the counting listeners.
func (w *fleetW) noteTraced(st *search.Stats, lat float64) {
	var frames int
	var bytes, wait int64
	var payloads [][]byte
	for _, cs := range w.stats {
		n, p := cs.frames()
		frames += n
		payloads = append(payloads, p...)
		bytes += cs.readBytes.Load() + cs.writeBytes.Load()
		wait += cs.readWait.Load()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.frames = append(w.frames, float64(frames))
	w.bytesPerRound = append(w.bytesPerRound, float64(bytes)/float64(max(st.Rounds, 1)))
	w.readWait = append(w.readWait, time.Duration(wait).Seconds())
	w.opLat = append(w.opLat, lat)
	if w.payloads == nil {
		w.payloads = payloads
	}
}

func (w *fleetW) verify() error { return nil }

func (w *fleetW) layers() map[string]metric {
	w.mu.Lock()
	defer w.mu.Unlock()
	m := map[string]metric{}
	if len(w.opLat) == 0 {
		return m
	}
	// The same options through in-process search.Run on one evaluator,
	// warmed by a first run like the fleet's workers.
	seed := w.env.seeds[0]
	ev, err := eval.New(w.g, hw.DefaultPlatform(), tiling.DefaultConfig())
	if err == nil {
		var inproc []float64
		for i := 0; i < 6 && err == nil; i++ {
			t := time.Now()
			_, _, err = search.Run(ev, fleetOptions(seed))
			if i > 0 {
				inproc = append(inproc, time.Since(t).Seconds())
			}
		}
		if err == nil {
			m["dist.overhead_ratio"] = metric{median(w.opLat) / median(inproc), "ratio"}
		}
	}
	m["dist.frames_per_op"] = metric{median(w.frames), "frames/op"}
	m["dist.bytes_per_round"] = metric{median(w.bytesPerRound), "B/round"}
	m["dist.worker_read_wait_s"] = metric{median(w.readWait), "s"}
	if s := codecSecondsPerMiB(w.payloads); s > 0 {
		m["dist.frame_codec_s_per_mib"] = metric{s, "s/MiB"}
	}
	return m
}

// codecSecondsPerMiB times EncodeFrame + DecodeFrame over captured payloads,
// repeating the pass until at least 50 ms have been measured.
func codecSecondsPerMiB(payloads [][]byte) float64 {
	var size int
	for _, p := range payloads {
		size += len(p)
	}
	if size == 0 {
		return 0
	}
	start := time.Now()
	passes := 0
	for time.Since(start) < 50*time.Millisecond {
		for _, p := range payloads {
			if _, _, _, err := dist.DecodeFrame(dist.EncodeFrame(dist.MsgType(1), p)); err != nil {
				return 0
			}
		}
		passes++
	}
	return time.Since(start).Seconds() / (float64(size*passes) / (1 << 20))
}

func (w *fleetW) close() {
	for _, ln := range w.lns {
		ln.Close()
	}
	w.wg.Wait()
}
