// Command perfbench is the repository's end-to-end benchmark. It drives the
// public API of the search stack from outside — search, core, eval, serve,
// dse, search/dist and serialize — on four workloads and prints one JSON
// result line:
//
//	go run . --workload coexplore --seed 1 --seconds 12 --trace 0
//
// Each run times many short, identical ops (one search, one served job, one
// sweep or one fleet run) and reports medians and tails over them, so that
// a host whose speed drifts within a run moves the figures as little as
// possible. With --trace 1 the run instead interleaves traced and untraced
// ops and reports per-layer metrics; see README.md.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cocco/internal/eval"
	"cocco/internal/models"
	"cocco/internal/tiling"
)

// opOut is what one op returns. check, when non-nil, is the op's
// correctness check; it runs after the timed loop so it is not timed.
// cleanup, when non-nil, runs right after the op's latency is taken, so
// files an op leaves behind do not pile up over the run.
type opOut struct {
	samples int
	cost    float64
	err     error
	check   func() error
	cleanup func()
}

// opTrace is the tracing context of one op: nil for an untraced op.
type opTrace struct {
	rec  *recorder
	op   int
	root int
}

// span opens a child span of the op and returns its closer.
func (t *opTrace) span(name string) func() {
	if t == nil {
		return func() {}
	}
	id := t.rec.begin(name, t.root, t.op)
	return func() { t.rec.end(id) }
}

// workload is one benchmark scenario. setup builds everything the timed ops
// need; op runs one op (client is the calling client's index); verify runs
// the once-per-run checks after the loop; layers reports the per-layer
// metrics gathered by traced ops.
type workload interface {
	setup() error
	op(client int, seed int64, tr *opTrace) opOut
	verify() error
	layers() map[string]metric
	close()
}

// spec describes a workload: how many op seeds its seed list holds, how
// many closed-loop clients drive it, its GOMAXPROCS, the models its setup
// builds, and how many ops it runs as a probe inside another workload's
// traced run (enough for its per-layer tails to have >= minTail beyond).
type spec struct {
	name     string
	seeds    int
	clients  int
	procs    int
	models   []string
	probeOps int
	newW     func(env *env) workload
}

// env is what a workload instance gets from the runner.
type env struct {
	seeds  []int64
	dir    string // scratch directory owned by this instance
	traced bool
}

var specs = []spec{coexploreSpec, serveSpec, sweepSpec, fleetSpec}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

const (
	// setup_s is the median over setupSamples of one set-up's time, each
	// sample timing a batch of setupBatch set-ups: a single set-up takes
	// under a millisecond, too short to time steadily on its own. Half the
	// samples are taken before the timed loop and half after it, so that a
	// host slow phase at the start of a run does not decide the figure.
	setupSamples = 11
	setupBatch   = 16
	// hardCap stops issuing ops so a run on a very slow host still exits
	// within three minutes.
	hardCap = 120 * time.Second
)

func main() {
	var (
		workloadName = flag.String("workload", "", "workload: coexplore, serve, sweep or fleet")
		seed         = flag.Int64("seed", 1, "workload seed; expands to the workload's op-seed list")
		seconds      = flag.Float64("seconds", 20, "minimum measuring time; the run also covers >= 100 ops and a whole number of seed-list passes")
		trace        = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		outDir       = flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for scratch files and the span dump")
	)
	flag.Parse()
	sp, ok := findSpec(*workloadName)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workloadName)
		os.Exit(2)
	}
	if err := run(sp, *seed, *seconds, *trace == 1, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run measures one workload and prints the host record and the result.
func run(sp spec, seed int64, seconds float64, traced bool, outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(outDir, sp.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	runtime.GOMAXPROCS(min(sp.procs, runtime.NumCPU()))

	r := &runner{sp: sp, seed: seed, seconds: seconds, dir: dir, out: outDir}
	var res *result
	if traced {
		res, err = r.traced()
	} else {
		res, err = r.untraced()
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runner runs one workload once.
type runner struct {
	sp      spec
	seed    int64
	seconds float64
	dir     string
	out     string

	kernelStart, kernelEnd time.Duration
	made                   int // instances built so far
}

// opRecord is one timed op.
type opRecord struct {
	idx    int
	seed   int64
	lat    time.Duration
	traced bool
	out    opOut
	ok     bool // set by judge: the op passed its checks
}

// instance builds a workload instance with its own scratch directory.
func (r *runner) instance(traced bool) (workload, error) {
	d := filepath.Join(r.dir, fmt.Sprintf("i%d", r.made))
	r.made++
	if err := os.MkdirAll(d, 0o755); err != nil {
		return nil, err
	}
	return r.sp.newW(&env{seeds: opSeeds(r.sp.name, r.seed, r.sp.seeds), dir: d, traced: traced}), nil
}

// setUp times batches of setupBatch set-ups and returns the per-set-up time
// of each batch in seconds. With keep it returns the last instance, still
// open; every other instance is closed.
func (r *runner) setUp(traced bool, batches int, keep bool) (workload, []float64, error) {
	var times []float64
	var live []workload
	closeAll := func() {
		for _, w := range live {
			w.close()
		}
		live = live[:0]
	}
	for i := 0; i < batches; i++ {
		closeAll()
		var ws []workload
		for j := 0; j < setupBatch; j++ {
			w, err := r.instance(traced)
			if err != nil {
				closeAll()
				return nil, nil, err
			}
			ws = append(ws, w)
		}
		start := time.Now()
		for _, w := range ws {
			err := w.setup()
			live = append(live, w)
			if err != nil {
				closeAll()
				return nil, nil, fmt.Errorf("%s setup: %w", r.sp.name, err)
			}
		}
		times = append(times, time.Since(start).Seconds()/setupBatch)
	}
	var last workload
	if keep {
		last = live[len(live)-1]
		live = live[:len(live)-1]
	}
	closeAll()
	return last, times, nil
}

// loop drives the closed-loop clients. Ops are issued in index order until
// at least r.seconds have passed, at least minOps ops were issued, and the
// seed list has been covered a whole number of times. traceOp selects the
// ops that run traced.
func (r *runner) loop(w workload, rec *recorder, minOps int, traceOp func(idx int) bool) []opRecord {
	seeds := opSeeds(r.sp.name, r.seed, r.sp.seeds)
	var (
		mu   sync.Mutex
		next int
		recs []opRecord
	)
	start := time.Now()
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		el := time.Since(start)
		if el > hardCap || (el.Seconds() >= r.seconds && next >= minOps && next%len(seeds) == 0) {
			return 0, false
		}
		next++
		return next - 1, true
	}
	var wg sync.WaitGroup
	for c := 0; c < r.sp.clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for {
				idx, ok := take()
				if !ok {
					return
				}
				s := seeds[idx%len(seeds)]
				var tr *opTrace
				traced := traceOp != nil && traceOp(idx)
				if traced {
					tr = &opTrace{rec: rec, op: idx}
					tr.root = rec.begin("op", 0, idx)
				}
				t0 := time.Now()
				out := w.op(client, s, tr)
				lat := time.Since(t0)
				if tr != nil {
					rec.end(tr.root)
				}
				if out.cleanup != nil {
					out.cleanup()
				}
				mu.Lock()
				recs = append(recs, opRecord{idx: idx, seed: s, lat: lat, traced: traced, out: out})
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	sort.Slice(recs, func(i, j int) bool { return recs[i].idx < recs[j].idx })
	return recs
}

// judge runs every op's deferred check and the once-per-run verify, and
// checks that ops of one seed agree exactly (cost and samples). It marks
// the ops that passed and returns the tally and the per-seed best costs in
// seed-list order.
func (r *runner) judge(w workload, recs []opRecord) (tally, []float64) {
	var t tally
	type first struct {
		cost    float64
		samples int
	}
	seen := make(map[int64]first)
	for i, rc := range recs {
		err := rc.out.err
		if err == nil && rc.out.check != nil {
			err = rc.out.check()
		}
		if err == nil {
			if f, ok := seen[rc.seed]; !ok {
				seen[rc.seed] = first{rc.out.cost, rc.out.samples}
			} else if f.cost != rc.out.cost || f.samples != rc.out.samples {
				err = fmt.Errorf("seed %d: op %d gave cost %v over %d samples, an earlier op gave %v over %d",
					rc.seed, rc.idx, rc.out.cost, rc.out.samples, f.cost, f.samples)
			}
		}
		recs[i].ok = err == nil
		t.record(err)
	}
	if err := w.verify(); err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
	var costs []float64
	for _, s := range opSeeds(r.sp.name, r.seed, r.sp.seeds) {
		if f, ok := seen[s]; ok {
			costs = append(costs, f.cost)
		}
	}
	return t, costs
}

// untraced is the end-to-end run.
func (r *runner) untraced() (*result, error) {
	r.kernelStart = refKernel()
	w, setupTimes, err := r.setUp(false, setupSamples-setupSamples/2, true)
	if err != nil {
		return nil, err
	}
	defer w.close()
	if _, err := r.warmUp(w); err != nil {
		return nil, err
	}
	minOps := max(100, minOpsForTail(0.9))

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	recs := r.loop(w, nil, minOps, nil)
	runtime.ReadMemStats(&after)
	_, later, err := r.setUp(false, setupSamples/2, false)
	if err != nil {
		return nil, err
	}
	setupTimes = append(setupTimes, later...)

	t, costs := r.judge(w, recs)
	r.kernelEnd = refKernel()

	lats, samples := latencies(recs, func(opRecord) bool { return true })
	res := &result{Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	p50 := median(lats)
	p90, perr := tailPercentile(lats, 0.9)
	if perr != nil {
		res.Failed++
		t.firstErr = errors.Join(t.firstErr, perr)
	}
	var total float64
	for _, rc := range recs {
		total += float64(rc.out.samples)
	}
	res.Metrics["setup_s"] = metric{median(setupTimes), "s"}
	res.Metrics["samples_per_s"] = metric{samplesPerSecond(mean(samples), p50), "samples/s"}
	res.Metrics["op_latency_p50_s"] = metric{p50, "s"}
	res.Metrics["op_latency_p90_s"] = metric{p90, "s"}
	res.Metrics["best_cost"] = metric{mean(costs), "cost"}
	res.Metrics["allocs_per_sample"] = metric{float64(after.Mallocs-before.Mallocs) / total, "allocs/sample"}
	res.Metrics["alloc_bytes_per_sample"] = metric{float64(after.TotalAlloc-before.TotalAlloc) / total, "B/sample"}
	res.Metrics["rss_peak_mb"] = metric{rssPeakMiB(), "MiB"}
	if gone := missing(res.Metrics, endToEnd); len(gone) > 0 {
		return nil, fmt.Errorf("run lacks end-to-end metrics %v", gone)
	}
	res.Correct = res.Failed == 0
	r.report(t)
	return res, nil
}

// traced is the per-layer run: the workload's own ops alternate between
// traced and untraced (so host drift hits both alike and their ratio is the
// tracing overhead), then short traced probes of the other workloads fill
// in the layers this workload does not exercise.
func (r *runner) traced() (*result, error) {
	r.kernelStart = refKernel()
	res := &result{Metrics: map[string]metric{}}
	var t tally

	buildS, ctxS, err := probeSetup(r.sp.models)
	if err != nil {
		return nil, err
	}
	res.Metrics["models.build_s"] = metric{buildS, "s"}
	res.Metrics["eval.context_build_s"] = metric{ctxS, "s"}

	rec := newRecorder()
	w, _, err := r.setUp(true, 1, true)
	if err != nil {
		return nil, err
	}
	warm, err := r.warmUp(w)
	if err != nil {
		w.close()
		return nil, err
	}
	res.Metrics["warmup_op_s"] = metric{warm.Seconds(), "s"}

	// Twice the untraced minimum, so the traced half alone has a p90.
	minOps := 2 * max(100, minOpsForTail(0.9))
	// Whole passes over the seed list alternate, so traced and untraced ops
	// cover the same seeds.
	recs := r.loop(w, rec, minOps, func(idx int) bool { return (idx/r.sp.seeds)%2 == 1 })
	wt, _ := r.judge(w, recs)
	t.merge(wt)
	for k, v := range w.layers() {
		res.Metrics[k] = v
	}
	w.close()

	tl, ts := latencies(recs, func(rc opRecord) bool { return rc.traced })
	ul, us := latencies(recs, func(rc opRecord) bool { return !rc.traced })
	tracedRate := samplesPerSecond(mean(ts), median(tl))
	untracedRate := samplesPerSecond(mean(us), median(ul))
	res.Metrics["trace.overhead_ratio"] = metric{untracedRate / tracedRate, "ratio"}
	res.Metrics["trace.spans_per_op"] = metric{float64(len(rec.spans)) / float64(len(tl)), "spans/op"}
	fmt.Fprintf(os.Stderr, "perfbench: tracing overhead on %s: traced %.1f samples/s vs untraced %.1f samples/s (%.2f%%)\n",
		r.sp.name, tracedRate, untracedRate, (untracedRate/tracedRate-1)*100)

	// Probes: every other workload runs a few traced ops, under its own
	// GOMAXPROCS, so that every per-layer metric is reported by every
	// traced run.
	procs := runtime.GOMAXPROCS(0)
	for _, other := range specs {
		if other.name == r.sp.name {
			continue
		}
		runtime.GOMAXPROCS(min(other.procs, runtime.NumCPU()))
		pr := &runner{sp: other, seed: r.seed, seconds: 0, dir: filepath.Join(r.dir, "probe-"+other.name)}
		pw, err := pr.instance(true)
		if err == nil {
			err = pw.setup()
		}
		if err != nil {
			if pw != nil {
				pw.close()
			}
			return nil, fmt.Errorf("probe %s: %w", other.name, err)
		}
		if _, err := pr.warmUp(pw); err != nil {
			pw.close()
			return nil, fmt.Errorf("probe: %w", err)
		}
		precs := pr.loop(pw, rec, other.probeOps, func(int) bool { return true })
		pt, _ := pr.judge(pw, precs)
		t.merge(pt)
		for k, v := range pw.layers() {
			res.Metrics[k] = v
		}
		pw.close()
	}
	runtime.GOMAXPROCS(procs)

	r.kernelEnd = refKernel()
	if gone := missing(res.Metrics, perLayer); len(gone) > 0 {
		t.failed++
		t.firstErr = errors.Join(t.firstErr, fmt.Errorf("traced run lacks per-layer metrics %v", gone))
	}
	res.Attempted, res.Failed = t.attempted, t.failed
	res.Correct = t.failed == 0
	r.writeSpans(rec)
	r.report(t)
	return res, nil
}

// warmUp runs the discarded warm-up op on the first op seed and returns
// its duration.
func (r *runner) warmUp(w workload) (time.Duration, error) {
	start := time.Now()
	if out := w.op(0, opSeeds(r.sp.name, r.seed, r.sp.seeds)[0], nil); out.err != nil {
		return 0, fmt.Errorf("%s warm-up op: %w", r.sp.name, out.err)
	}
	return time.Since(start), nil
}

// probeSetup times models.Build and eval.NewGraphContext for the models a
// workload's setup builds: the median over setupSamples of the sum over
// models.
func probeSetup(names []string) (buildS, ctxS float64, err error) {
	var builds, ctxs []float64
	for i := 0; i < setupSamples; i++ {
		var b, c time.Duration
		for _, name := range names {
			t := time.Now()
			g, err := models.Build(name)
			b += time.Since(t)
			if err != nil {
				return 0, 0, err
			}
			t = time.Now()
			eval.NewGraphContext(g, tiling.DefaultConfig())
			c += time.Since(t)
		}
		builds = append(builds, b.Seconds())
		ctxs = append(ctxs, c.Seconds())
	}
	return median(builds), median(ctxs), nil
}

// latencies returns the latency and sample count of every op that passed
// its checks and is kept: failed ops count against the run but do not enter
// its timings.
func latencies(recs []opRecord, keep func(opRecord) bool) (lats, samples []float64) {
	for _, rc := range recs {
		if rc.ok && keep(rc) {
			lats = append(lats, rc.lat.Seconds())
			samples = append(samples, float64(rc.out.samples))
		}
	}
	return lats, samples
}

// writeSpans dumps the spans and prints each span name's self time.
func (r *runner) writeSpans(rec *recorder) {
	path := filepath.Join(r.out, fmt.Sprintf("spans-%s-%d.jsonl", r.sp.name, r.seed))
	if err := rec.writeFile(path); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: span dump:", err)
	}
	self := selfTimes(rec.spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, " %s=%.3fs", n, self[n].Seconds())
	}
	fmt.Fprintf(os.Stderr, "perfbench: self time by span:%s\n", b.String())
}

// report prints the host record: CPU count, GOMAXPROCS, Go version and the
// reference kernel's time at the start and end of the run, so host drift
// can be read next to the figures. It is context, not a metric.
func (r *runner) report(t tally) {
	host := map[string]any{
		"workload":        r.sp.name,
		"seed":            r.seed,
		"nproc":           runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"go":              runtime.Version(),
		"ref_kernel_ms":   []float64{msOf(r.kernelStart), msOf(r.kernelEnd)},
		"ref_kernel_note": "sha256 over a fixed 4 MiB buffer, 8 passes",
	}
	line, _ := json.Marshal(map[string]any{"host": host})
	fmt.Println(string(line))
	if t.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failure:", t.firstErr)
	}
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// refKernel times a frozen CPU kernel.
func refKernel() time.Duration {
	buf := make([]byte, 4<<20)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	start := time.Now()
	for i := 0; i < 8; i++ {
		sum := sha256.Sum256(buf)
		buf[0] = sum[0]
	}
	return time.Since(start)
}

// rssPeakMiB reads the process's peak resident set size (VmHWM).
func rssPeakMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
