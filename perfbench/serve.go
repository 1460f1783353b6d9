package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"cocco/internal/core"
	"cocco/internal/eval"
	"cocco/internal/graph"
	"cocco/internal/hw"
	"cocco/internal/models"
	"cocco/internal/search"
	"cocco/internal/serialize"
	"cocco/internal/serve"
	"cocco/internal/tiling"
)

// serve: an in-process job server behind its HTTP handler on a loopback
// listener, one pool worker, two closed-loop HTTP clients. Each client
// submits a job, follows /watch to the terminal line, fetches /result and
// submits its next job. Jobs run mobilenetv2 with two GA islands and an SA
// scout over several scheduler slices, so every round writes a checkpoint
// and every slice resumes from one.
var serveSpec = spec{
	name:     "serve",
	seeds:    20,
	clients:  2,
	procs:    2,
	models:   []string{"mobilenetv2"},
	probeOps: 100,
	newW:     func(e *env) workload { return &serveW{env: e} },
}

const (
	serveModel       = "mobilenetv2"
	servePopulation  = 40
	serveSamples     = 320 // per island: 8 rounds, 4 slices of 2 rounds
	serveSliceRounds = 2
)

// serveJob is the job spec of one op.
func serveJob(seed int64) serialize.JobSpecJSON {
	return serialize.JobSpecJSON{
		Model:        serveModel,
		Seed:         seed,
		Population:   servePopulation,
		Samples:      serveSamples,
		Islands:      2,
		MigrateEvery: 1,
		Scouts:       []string{"sa"},
	}
}

// serveDirectOptions is the search.Options a served serveJob(seed) runs
// under: the spec's defaults spelled out (energy objective, separate
// buffers of 1024 KiB global and 1152 KiB weight, two migrants).
func serveDirectOptions(seed int64) search.Options {
	return search.Options{
		Core: core.Options{
			Seed:       seed,
			Workers:    2,
			Population: servePopulation,
			MaxSamples: serveSamples,
			Objective:  eval.Objective{Metric: eval.MetricEnergy},
			Mem: core.MemSearch{Kind: hw.SeparateBuffer, Fixed: hw.MemConfig{
				Kind: hw.SeparateBuffer, GlobalBytes: 1024 * hw.KiB, WeightBytes: 1152 * hw.KiB,
			}},
		},
		Islands:      2,
		MigrateEvery: 1,
		Migrants:     2,
		Scouts:       []search.ScoutKind{search.ScoutSA},
	}
}

type serveW struct {
	env     *env
	g       *graph.Graph
	srv     *serve.Server
	hs      *http.Server
	base    string
	clients []*http.Client
	served  chan error

	mu    sync.Mutex
	first map[int64]*serialize.GenomeJSON // first served result per seed

	// Traced-job accumulators.
	submit, queueWait, rounds, result []float64
	slices, sliceDur                  []float64
	sliceRounds                       []int
	ckptBytes, manifestBytes          []float64
	encode, decode, atomicWrite       []float64
}

func (w *serveW) setup() error {
	g, err := models.Build(serveModel)
	if err != nil {
		return err
	}
	w.g = g
	w.first = make(map[int64]*serialize.GenomeJSON)
	w.srv, err = serve.NewServer(serve.Options{
		Dir:         filepath.Join(w.env.dir, "jobs"),
		PoolWorkers: 1,
		SliceRounds: serveSliceRounds,
		EvalWorkers: 2,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.base = "http://" + ln.Addr().String()
	w.hs = &http.Server{Handler: w.srv.Handler(), ReadHeaderTimeout: 30 * time.Second}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	for i := 0; i < serveSpec.clients; i++ {
		// One connection per client, reused across its requests.
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		c := &http.Client{Transport: tr, Timeout: 120 * time.Second}
		w.clients = append(w.clients, c)
		// Ready means each client's connection is open and answered.
		var list []serialize.JobManifestJSON
		if err := getJSON(c, w.base+"/jobs", &list); err != nil {
			return err
		}
	}
	return nil
}

// watchLine is the part of a /watch manifest line the benchmark reads:
// its receipt time, and the server's own running-time clock (samples ÷
// samples/s, the wall time the job has spent inside slices), which unlike
// the receipt time does not depend on when the line was delivered.
type watchLine struct {
	at     time.Time
	state  string
	slices int
	rounds int
	run    float64 // s; 0 when the line carries no rate yet
}

func (w *serveW) op(client int, seed int64, tr *opTrace) opOut {
	c := w.clients[client]
	spec := serveJob(seed)
	body, err := json.Marshal(spec)
	if err != nil {
		return opOut{err: err}
	}
	t0 := time.Now()
	done := tr.span("serve.submit")
	var sub struct{ ID string }
	err = postJSON(c, w.base+"/jobs", body, &sub)
	done()
	if err != nil {
		return opOut{err: err}
	}
	tSubmit := time.Since(t0).Seconds()

	done = tr.span("serve.watch")
	lines, err := w.watch(c, sub.ID, tr != nil)
	done()
	if err != nil {
		return opOut{err: err}
	}

	t1 := time.Now()
	done = tr.span("serve.result")
	var res struct {
		State    string
		Result   *serialize.GenomeJSON
		Error    string
		Progress *serialize.JobProgressJSON
	}
	err = getJSON(c, w.base+"/jobs/"+sub.ID+"/result", &res)
	done()
	if err != nil {
		return opOut{err: err}
	}
	tResult := time.Since(t1).Seconds()
	if res.State != serialize.JobStateDone || res.Result == nil || res.Progress == nil {
		return opOut{err: fmt.Errorf("serve: job %s ended %s without a result (%s)", sub.ID, res.State, res.Error)}
	}
	if tr != nil {
		w.noteTraced(t0, tSubmit, tResult, lines)
	}
	w.mu.Lock()
	if _, ok := w.first[seed]; !ok {
		w.first[seed] = res.Result
	}
	w.mu.Unlock()
	genome := res.Result
	return opOut{
		samples: res.Progress.Samples,
		cost:    genome.Cost,
		// A finished job's checkpoint is never read again; removing it keeps
		// the job directory from growing by one checkpoint per op. A traced
		// op first times the serialize layer on it, outside the op's latency.
		cleanup: func() {
			if tr != nil {
				w.probeSerialize(sub.ID)
			}
			os.Remove(w.jobFile(sub.ID, ".ckpt"))
		},
		check: func() error {
			mem, err := serialize.DecodeMemConfig(genome.Mem)
			if err != nil {
				return err
			}
			return recost(w.g, genome.Assign, mem, genome.Cost, eval.Objective{Metric: eval.MetricEnergy})
		},
	}
}

// watch follows /watch to the terminal line. With keep, it returns the
// receipt time, state, slice count and round count of every line.
func (w *serveW) watch(c *http.Client, id string, keep bool) ([]watchLine, error) {
	resp, err := c.Get(w.base + "/jobs/" + id + "/watch")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("serve: watch %s: %s", id, resp.Status)
	}
	var lines []watchLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	last := ""
	for sc.Scan() {
		var m serialize.JobManifestJSON
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			return nil, fmt.Errorf("serve: watch %s: %w", id, err)
		}
		last = m.State
		if keep {
			l := watchLine{at: time.Now(), state: m.State, slices: m.Slices}
			if p := m.Progress; p != nil {
				l.rounds = p.Rounds
				if p.SamplesPerSec > 0 {
					l.run = float64(p.Samples) / p.SamplesPerSec
				}
			}
			lines = append(lines, l)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if last != serialize.JobStateDone {
		return nil, fmt.Errorf("serve: job %s watch ended in state %q", id, last)
	}
	return lines, nil
}

// noteTraced derives the job's scheduling figures from its /watch lines.
func (w *serveW) noteTraced(t0 time.Time, tSubmit, tResult float64, lines []watchLine) {
	queueWait := -1.0
	var rounds, sliceDur []float64
	var sliceRounds []int
	// lastEnd is the running-time clock, round count and slice count at the
	// end of the previous slice (a line in a between-slices state).
	lastEnd, lastEndRounds, lastEndSlices := 0.0, 0, 0
	for i, l := range lines {
		if l.state != serialize.JobStateQueued && queueWait < 0 {
			queueWait = l.at.Sub(t0).Seconds()
		}
		// A round interval runs between two lines one round apart inside one
		// slice. The slice's first round also pays for the resume, so it is
		// left to the slice overhead.
		if i > 0 {
			prev := lines[i-1]
			if prev.state == serialize.JobStateRunning && prev.slices == lastEndSlices &&
				prev.rounds > lastEndRounds && l.rounds == prev.rounds+1 && prev.run > 0 && l.run > 0 {
				rounds = append(rounds, l.run-prev.run)
			}
		}
		if l.state == serialize.JobStatePaused || l.state == serialize.JobStateDone {
			if l.slices == lastEndSlices+1 && l.run > 0 {
				sliceDur = append(sliceDur, l.run-lastEnd)
				sliceRounds = append(sliceRounds, l.rounds-lastEndRounds)
			}
			lastEnd, lastEndRounds, lastEndSlices = l.run, l.rounds, l.slices
		}
	}
	final := lines[len(lines)-1]
	w.mu.Lock()
	defer w.mu.Unlock()
	w.submit = append(w.submit, tSubmit)
	w.result = append(w.result, tResult)
	if queueWait >= 0 {
		w.queueWait = append(w.queueWait, queueWait)
	}
	w.rounds = append(w.rounds, rounds...)
	w.sliceDur = append(w.sliceDur, sliceDur...)
	w.sliceRounds = append(w.sliceRounds, sliceRounds...)
	w.slices = append(w.slices, float64(final.slices))
}

func (w *serveW) jobFile(id, ext string) string { return filepath.Join(w.env.dir, "jobs", id+ext) }

// probeSerialize times checkpoint decode, encode and an atomic write on the
// job's real checkpoint bytes, and records the checkpoint and manifest
// sizes.
func (w *serveW) probeSerialize(id string) {
	ckpt, err := os.ReadFile(w.jobFile(id, ".ckpt"))
	if err != nil {
		return
	}
	man, merr := os.Stat(w.jobFile(id, ".job"))
	t := time.Now()
	cp, err := serialize.DecodeCheckpoint(ckpt)
	dec := time.Since(t).Seconds()
	if err != nil {
		return
	}
	t = time.Now()
	if _, err := serialize.EncodeCheckpoint(cp); err != nil {
		return
	}
	enc := time.Since(t).Seconds()
	probe := w.jobFile(id, ".probe")
	t = time.Now()
	err = serialize.AtomicWriteFile(probe, ckpt, 0o644)
	aw := time.Since(t).Seconds()
	os.Remove(probe)
	if err != nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.ckptBytes = append(w.ckptBytes, float64(len(ckpt)))
	w.decode = append(w.decode, dec)
	w.encode = append(w.encode, enc)
	w.atomicWrite = append(w.atomicWrite, aw)
	if merr == nil {
		w.manifestBytes = append(w.manifestBytes, float64(man.Size()))
	}
}

// verify checks once per run that a served job equals a direct search.Run
// with the same options: same best cost, assignment and memory.
func (w *serveW) verify() error {
	seed := w.env.seeds[0]
	w.mu.Lock()
	served := w.first[seed]
	w.mu.Unlock()
	if served == nil {
		return fmt.Errorf("serve: no served result for seed %d", seed)
	}
	ev, err := eval.New(w.g, hw.DefaultPlatform(), tiling.DefaultConfig())
	if err != nil {
		return err
	}
	best, _, err := search.Run(ev, serveDirectOptions(seed))
	if err != nil {
		return err
	}
	direct := search.EncodeGenome(best, false)
	if direct.Cost != served.Cost || !slices.Equal(direct.Assign, served.Assign) || direct.Mem != served.Mem {
		return fmt.Errorf("serve: served job (cost %v) differs from direct search.Run (cost %v)", served.Cost, direct.Cost)
	}
	return nil
}

func (w *serveW) layers() map[string]metric {
	w.mu.Lock()
	defer w.mu.Unlock()
	m := map[string]metric{}
	if len(w.submit) == 0 {
		return m
	}
	roundP50 := median(w.rounds)
	var overhead []float64
	for i, d := range w.sliceDur {
		overhead = append(overhead, d-float64(w.sliceRounds[i])*roundP50)
	}
	m["search.round_s_p50"] = metric{roundP50, "s"}
	m["search.checkpoint_bytes"] = metric{median(w.ckptBytes), "B"}
	m["serialize.checkpoint_encode_s"] = metric{median(w.encode), "s"}
	m["serialize.checkpoint_decode_s"] = metric{median(w.decode), "s"}
	m["serialize.atomic_write_s"] = metric{median(w.atomicWrite), "s"}
	m["serialize.manifest_bytes"] = metric{median(w.manifestBytes), "B"}
	m["serve.submit_s_p50"] = metric{median(w.submit), "s"}
	m["serve.queue_wait_s_p50"] = metric{median(w.queueWait), "s"}
	if p90, err := tailPercentile(w.queueWait, 0.9); err == nil {
		m["serve.queue_wait_s_p90"] = metric{p90, "s"}
	}
	m["serve.slices_per_job"] = metric{mean(w.slices), "slices/job"}
	m["serve.slice_s_p50"] = metric{median(w.sliceDur), "s"}
	m["serve.slice_overhead_s"] = metric{median(overhead), "s"}
	m["serve.result_s"] = metric{median(w.result), "s"}
	return m
}

func (w *serveW) close() {
	if w.hs != nil {
		w.hs.Close()
		<-w.served
	}
	for _, c := range w.clients {
		c.CloseIdleConnections()
	}
	if w.srv != nil {
		w.srv.Close()
	}
}

func postJSON(c *http.Client, url string, body []byte, out any) error {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	return decodeResp(resp, http.StatusCreated, out)
}

func getJSON(c *http.Client, url string, out any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	return decodeResp(resp, http.StatusOK, out)
}

func decodeResp(resp *http.Response, want int, out any) error {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: %s: %s", resp.Request.Method, resp.Request.URL.Path, resp.Status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}
