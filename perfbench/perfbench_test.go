package main

import (
	"encoding/json"
	"errors"
	"net"
	"os"
	"slices"
	"testing"
	"time"

	"cocco/internal/search/dist"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(100 - i) // unsorted on purpose
	}
	p90, err := tailPercentile(vals, 0.9)
	if err != nil {
		t.Fatalf("100 ops: %v", err)
	}
	if p90 != 90 {
		t.Fatalf("p90 of 1..100 = %v, want 90 (10 values beyond it)", p90)
	}
	if _, err := tailPercentile(vals[:99], 0.9); err == nil {
		t.Fatal("99 ops: p90 has only 9 beyond it, want an error")
	}
	if got := minOpsForTail(0.9); got != 100 {
		t.Fatalf("minOpsForTail(0.9) = %d, want 100", got)
	}
	if _, err := tailPercentile(make([]float64, minOpsForTail(0.9)), 0.9); err != nil {
		t.Fatalf("minOpsForTail ops rejected: %v", err)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median even = %v", got)
	}
}

func TestSamplesPerSecondFromMedian(t *testing.T) {
	// One very slow op moves total/elapsed a lot and the median not at all.
	lats := []float64{1, 1, 1, 1, 100}
	samples := []float64{10, 10, 10, 10, 10}
	got := samplesPerSecond(mean(samples), median(lats))
	if got != 10 {
		t.Fatalf("samples_per_s = %v, want 10 (10 samples / 1 s median)", got)
	}
	if naive := sum(samples) / sum(lats); naive == got {
		t.Fatalf("test does not separate median from total/elapsed")
	}
}

func TestOpSeedsDeterministic(t *testing.T) {
	a := opSeeds("coexplore", 7, 10)
	if b := opSeeds("coexplore", 7, 10); !slices.Equal(a, b) {
		t.Fatal("same workload and seed gave different lists")
	}
	if b := opSeeds("coexplore", 8, 10); slices.Equal(a, b) {
		t.Fatal("different seeds gave the same list")
	}
	if b := opSeeds("sweep", 7, 10); slices.Equal(a, b) {
		t.Fatal("different workloads gave the same list")
	}
	if b := opSeeds("coexplore", 7, 4); !slices.Equal(a[:4], b) {
		t.Fatal("a shorter list is not a prefix of the longer one")
	}
	for _, s := range a {
		if s < 0 {
			t.Fatalf("negative op seed %d", s)
		}
	}
}

func TestTallyCountsFailures(t *testing.T) {
	var ta tally
	ta.record(nil)
	ta.record(errors.New("first"))
	ta.record(nil)
	ta.record(errors.New("second"))
	if ta.attempted != 4 || ta.failed != 2 || ta.firstErr.Error() != "first" {
		t.Fatalf("tally = %+v", ta)
	}
}

// fakeWorkload returns scripted op results.
type fakeWorkload struct {
	ops       func(seed int64) opOut
	verifyErr error
}

func (f *fakeWorkload) setup() error                           { return nil }
func (f *fakeWorkload) op(_ int, seed int64, _ *opTrace) opOut { return f.ops(seed) }
func (f *fakeWorkload) verify() error                          { return f.verifyErr }
func (f *fakeWorkload) layers() map[string]metric              { return nil }
func (f *fakeWorkload) close()                                 {}

func fakeRunner(seeds, clients int) *runner {
	return &runner{sp: spec{name: "fake", seeds: seeds, clients: clients}, seed: 1}
}

func TestLoopCoversSeedListWholeTimes(t *testing.T) {
	for _, clients := range []int{1, 2} {
		r := fakeRunner(10, clients)
		w := &fakeWorkload{ops: func(seed int64) opOut { return opOut{samples: 1, cost: float64(seed)} }}
		recs := r.loop(w, nil, 25, nil)
		if len(recs) != 30 {
			t.Fatalf("clients=%d: %d ops, want 30 (>= 25, whole passes of 10)", clients, len(recs))
		}
		seeds := opSeeds("fake", 1, 10)
		for i, rc := range recs {
			if rc.idx != i || rc.seed != seeds[i%10] {
				t.Fatalf("clients=%d: op %d has idx %d seed %d", clients, i, rc.idx, rc.seed)
			}
		}
	}
}

func TestJudgeCountsFailures(t *testing.T) {
	r := fakeRunner(2, 1)
	seeds := opSeeds("fake", 1, 2)
	bad := errors.New("check failed")
	recs := []opRecord{
		{idx: 0, seed: seeds[0], out: opOut{cost: 5, samples: 10}},
		{idx: 1, seed: seeds[1], out: opOut{err: errors.New("op error")}},
		{idx: 2, seed: seeds[0], out: opOut{cost: 6, samples: 10}}, // disagrees with op 0
		{idx: 3, seed: seeds[1], out: opOut{cost: 7, samples: 10, check: func() error { return bad }}},
		{idx: 4, seed: seeds[1], out: opOut{cost: 8, samples: 10}},
	}
	ta, costs := r.judge(&fakeWorkload{verifyErr: errors.New("verify")}, recs)
	if ta.attempted != 5 {
		t.Fatalf("attempted = %d, want 5", ta.attempted)
	}
	// ops 1, 2 and 3 fail, plus the once-per-run verify.
	if ta.failed != 4 {
		t.Fatalf("failed = %d, want 4", ta.failed)
	}
	if !slices.Equal(costs, []float64{5, 8}) {
		t.Fatalf("per-seed costs = %v, want [5 8]", costs)
	}
	// Only the ops that passed enter the timings.
	for i := range recs {
		recs[i].lat = time.Duration(i+1) * time.Second
	}
	lats, samples := latencies(recs, func(opRecord) bool { return true })
	if !slices.Equal(lats, []float64{1, 5}) || !slices.Equal(samples, []float64{10, 10}) {
		t.Fatalf("latencies = %v, samples = %v; want the passed ops 0 and 4 only", lats, samples)
	}
}

func TestCountingConnBytesAndFrames(t *testing.T) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	st := &connStats{capture: true}
	st.on.Store(true)
	ln := &countingListener{Listener: raw, stats: st}
	defer ln.Close()

	payloads := [][]byte{[]byte(`{"a":1}`), make([]byte, 3000)}
	reply := []byte(`{"ok":true}`)
	want := 0
	for _, p := range payloads {
		want += len(dist.EncodeFrame(dist.MsgType(1), p))
	}
	wantReply := len(dist.EncodeFrame(dist.MsgType(2), reply))

	errc := make(chan error, 1)
	go func() {
		c, err := net.Dial("tcp", raw.Addr().String())
		if err != nil {
			errc <- err
			return
		}
		defer c.Close()
		time.Sleep(20 * time.Millisecond) // the server blocks in Read meanwhile
		for _, p := range payloads {
			if err := dist.WriteFrame(c, dist.MsgType(1), p); err != nil {
				errc <- err
				return
			}
		}
		_, _, err = dist.ReadFrame(c)
		errc <- err
	}()

	c, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for range payloads {
		if _, _, err := dist.ReadFrame(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := dist.WriteFrame(c, dist.MsgType(2), reply); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if got := st.readBytes.Load(); got != int64(want) {
		t.Fatalf("read bytes = %d, want %d", got, want)
	}
	if got := st.writeBytes.Load(); got != int64(wantReply) {
		t.Fatalf("write bytes = %d, want %d", got, wantReply)
	}
	if st.readWait.Load() < int64(10*time.Millisecond) {
		t.Fatalf("read wait = %v, want >= 10ms", time.Duration(st.readWait.Load()))
	}
	n, got := st.frames()
	if n != 3 || !slices.Equal(got[0], payloads[0]) || !slices.Equal(got[1], payloads[1]) || !slices.Equal(got[2], reply) {
		t.Fatalf("frames = %d %q", n, got)
	}
	st.reset()
	if n, _ := st.frames(); n != 0 || st.readBytes.Load() != 0 {
		t.Fatal("reset left counts behind")
	}

	// With the stats off, accepted connections are bare and count nothing.
	st.on.Store(false)
	go func() {
		if c, err := net.Dial("tcp", raw.Addr().String()); err == nil {
			dist.WriteFrame(c, dist.MsgType(1), payloads[0])
			c.Close()
		}
	}()
	bare, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	if _, ok := bare.(*countingConn); ok {
		t.Fatal("listener wrapped a connection while off")
	}
	if _, _, err := dist.ReadFrame(bare); err != nil {
		t.Fatal(err)
	}
	if st.readBytes.Load() != 0 {
		t.Fatal("a bare connection was counted")
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 1 * ms, End: 4 * ms},
		{ID: 3, Parent: 1, Name: "a", Start: 3 * ms, End: 6 * ms}, // overlaps span 2
		{ID: 4, Parent: 1, Name: "b", Start: 8 * ms, End: 9 * ms},
		{ID: 5, Parent: 4, Name: "c", Start: 8 * ms, End: 9 * ms},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{"op": 4 * ms, "a": 6 * ms, "b": 0, "c": 1 * ms}
	for k, v := range want {
		if self[k] != v {
			t.Fatalf("self[%s] = %v, want %v (all: %v)", k, self[k], v, self)
		}
	}
}

func TestRecorderNilIsNoop(t *testing.T) {
	var r *recorder
	id := r.begin("x", 0, 0)
	r.end(id)
	var tr *opTrace
	tr.span("y")()
}

// TestBenchmarkJSONMatchesCode keeps the metric lists of the repository's
// BENCHMARK.json and of this program in step, and checks that every
// workload it names exists here.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	for _, name := range names(b.Workloads) {
		if _, ok := findSpec(name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not a workload of the program", name)
		}
	}
	for _, c := range []struct {
		what      string
		json, got []string
	}{
		{"end_to_end", names(b.EndToEnd), endToEnd},
		{"per_layer", names(b.PerLayer), perLayer},
	} {
		if !slices.Equal(c.json, c.got) {
			t.Errorf("%s: BENCHMARK.json lists %v, the program %v", c.what, c.json, c.got)
		}
	}
}

func sum(vals []float64) float64 {
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s
}
