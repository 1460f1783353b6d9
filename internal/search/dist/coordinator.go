package dist

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"cocco/internal/core"
	"cocco/internal/eval"
	"cocco/internal/search"
	"cocco/internal/serialize"
)

// Options configures a distributed run.
type Options struct {
	// Search is the full search configuration — identical to what a
	// single-process search.Run would take. Core.Workers is NOT sent to
	// workers; each worker process spends its own -workers budget.
	Search search.Options
	// Workers lists worker addresses (host:port). The ring is split into
	// contiguous slices across them in order: the first ring%K workers host
	// one extra island.
	Workers []string
	// DialTimeout bounds each worker connection attempt (default 10s).
	DialTimeout time.Duration
	// IOTimeout, when positive, sets a deadline on every frame read and
	// write to a worker, so a hung or half-open socket fails the round
	// with an actionable per-worker error instead of stalling the
	// migration barrier forever. It must exceed the longest legitimate
	// silence — the slowest worker's MigrateEvery-round step. Zero
	// disables deadlines (tests, trusted local fleets); cmd/cocco
	// defaults it to a few minutes.
	IOTimeout time.Duration
}

// peer is one connected worker and its ring slice.
type peer struct {
	addr   string
	w      *wire
	lo, hi int
}

// splitRing partitions ring islands into contiguous slices over k workers,
// first slices one larger when ring%k != 0. Mirrors splitWorkers' remainder
// policy so "7 islands over 5 workers" wastes nobody.
func splitRing(ring, k int) [][2]int {
	out := make([][2]int, k)
	per, rem := ring/k, ring%k
	lo := 0
	for i := range out {
		n := per
		if i < rem {
			n++
		}
		out[i] = [2]int{lo, lo + n}
		lo += n
	}
	return out
}

type coordinator struct {
	ev    *eval.Evaluator
	sopt  search.Options // normalized
	ring  int
	peers []*peer

	rounds     int
	migrations int
	paused     bool
	sent, recv []int

	// closeOnce guarantees every peer connection is closed exactly once,
	// whichever of the (handshake-failure, run-failure, normal-finish)
	// paths gets there first.
	closeOnce sync.Once
}

// Run executes a distributed search from scratch. With the same
// search.Options, any worker partitioning is bit-identical to the
// single-process search.Run.
func Run(ev *eval.Evaluator, opt Options) (*core.Genome, *search.Stats, error) {
	return run(ev, opt, nil)
}

// Resume continues a distributed search from a checkpoint snapshot written
// by a previous Run — or by a single-process search.Run with the same
// options: the checkpoint format is shared, so a fleet can pick up a
// single-process run and vice versa.
func Resume(ev *eval.Evaluator, opt Options, snapshot []byte) (*core.Genome, *search.Stats, error) {
	cp, err := serialize.DecodeCheckpoint(snapshot)
	if err != nil {
		return nil, nil, err
	}
	if err := search.CheckCheckpoint(cp, ev.Graph().Name, opt.Search); err != nil {
		return nil, nil, err
	}
	return run(ev, opt, cp)
}

// RunOrResume resumes from resumePath when the file exists, otherwise starts
// fresh — the same crash-restart contract as search.RunOrResume, including
// the corrupt-checkpoint error wrapping.
func RunOrResume(ev *eval.Evaluator, opt Options, resumePath string) (*core.Genome, *search.Stats, error) {
	if resumePath != "" {
		data, err := os.ReadFile(resumePath)
		if err == nil {
			best, stats, rerr := Resume(ev, opt, data)
			if rerr != nil && stats == nil {
				rerr = fmt.Errorf("dist: resume from checkpoint %s: %w (delete the file to restart the search from scratch)", resumePath, rerr)
			}
			return best, stats, rerr
		}
		if !os.IsNotExist(err) {
			return nil, nil, fmt.Errorf("dist: read checkpoint: %w", err)
		}
	}
	return Run(ev, opt)
}

func run(ev *eval.Evaluator, opt Options, cp *serialize.CheckpointJSON) (*core.Genome, *search.Stats, error) {
	c, err := newCoordinator(ev, opt, cp)
	if c != nil {
		defer c.close()
	}
	if err != nil {
		return nil, nil, err
	}
	if err := c.roundsSync(); err != nil {
		return nil, nil, err
	}
	return c.finish()
}

func newCoordinator(ev *eval.Evaluator, opt Options, cp *serialize.CheckpointJSON) (*coordinator, error) {
	sopt := opt.Search.WithDefaults()
	if sopt.Core.Init != nil || sopt.Core.Trace != nil {
		return nil, errors.New("dist: Core.Init and Core.Trace are not supported in distributed runs")
	}
	if sopt.Progress != nil {
		// Silently dropping the callback would look like a stalled run to a
		// caller that relies on it; refuse loudly like Init/Trace.
		return nil, errors.New("dist: Options.Progress is not supported in distributed runs")
	}
	if len(opt.Workers) == 0 {
		return nil, errors.New("dist: no worker addresses")
	}
	ring := sopt.Islands + len(sopt.Scouts)
	if len(opt.Workers) > ring {
		return nil, fmt.Errorf("dist: %d workers for a %d-island ring; grow -islands/-scouts or drop workers", len(opt.Workers), ring)
	}
	if sopt.MaxRounds > 0 && sopt.Checkpoint == "" {
		return nil, errors.New("dist: MaxRounds requires a Checkpoint path to resume from")
	}
	c := &coordinator{ev: ev, sopt: sopt, ring: ring}
	if cp != nil {
		c.rounds = cp.Round
		c.migrations = cp.Migrations
		c.sent = cp.MigrantsSent
		c.recv = cp.MigrantsReceived
	}

	dialTimeout := opt.DialTimeout
	if dialTimeout <= 0 {
		dialTimeout = 10 * time.Second
	}
	slices := splitRing(ring, len(opt.Workers))
	for i, addr := range opt.Workers {
		conn, err := net.DialTimeout("tcp", addr, dialTimeout)
		if err != nil {
			return c, fmt.Errorf("dist: worker %s: %w", addr, err)
		}
		c.peers = append(c.peers, &peer{addr: addr, w: newWire(conn, opt.IOTimeout), lo: slices[i][0], hi: slices[i][1]})
	}

	hello := helloMsg{Proto: ProtocolVersion, Fingerprint: evFingerprint(ev)}
	wireOpt := encodeOptions(sopt)
	config := search.Fingerprint(sopt)
	err := c.eachIndexed(func(_ int, p *peer) error {
		var ack helloMsg
		if err := p.w.request(MsgHello, hello, MsgHelloAck, &ack); err != nil {
			return err
		}
		if ack.Fingerprint != hello.Fingerprint {
			return fmt.Errorf("evaluator fingerprint mismatch:\n  coordinator %s\n  worker      %s", hello.Fingerprint, ack.Fingerprint)
		}
		assign := assignMsg{Options: wireOpt, Config: config, Lo: p.lo, Hi: p.hi}
		if cp != nil {
			assign.Round = cp.Round
			assign.Migrations = cp.Migrations
			assign.Islands = cp.Islands[p.lo:p.hi]
		}
		return p.w.request(MsgAssign, assign, MsgAssignAck, nil)
	})
	if err != nil {
		return c, err
	}
	return c, nil
}

// close tears down every worker connection exactly once. It is reached from
// run's deferred cleanup on every path — handshake/assign failure (including
// the partial-fleet case where some workers connected and one failed),
// mid-run errors, and normal completion — and the Once keeps a second
// arrival from double-closing peers. Closing the connection is also what
// releases the surviving workers: their sequential frame loops see EOF and
// go back to accepting.
func (c *coordinator) close() {
	c.closeOnce.Do(func() {
		for _, p := range c.peers {
			if p.w != nil {
				p.w.c.Close()
			}
		}
	})
}

// eachIndexed runs fn once per connected peer, concurrently, with the
// peer's index, and joins errors annotated with the worker address.
func (c *coordinator) eachIndexed(fn func(i int, p *peer) error) error {
	errs := make([]error, len(c.peers))
	var wg sync.WaitGroup
	for i, p := range c.peers {
		wg.Add(1)
		go func(i int, p *peer) {
			defer wg.Done()
			if err := fn(i, p); err != nil {
				errs[i] = fmt.Errorf("dist: worker %s: %w", p.addr, err)
			}
		}(i, p)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// ownerOf returns the peer hosting a global ring index.
func (c *coordinator) ownerOf(idx int) *peer {
	for _, p := range c.peers {
		if idx >= p.lo && idx < p.hi {
			return p
		}
	}
	return nil // unreachable: slices cover [0,ring)
}

// roundsSync is the deterministic schedule: step everyone, then hold the
// migration barrier — collect every worker's emigrants before committing
// any — then checkpoint, exactly like orchestrator.run.
func (c *coordinator) roundsSync() error {
	stepped := make([]steppedMsg, len(c.peers))
	startRound := c.rounds
	for {
		if err := c.eachIndexed(func(i int, p *peer) error {
			return p.w.request(MsgStep, struct{}{}, MsgStepped, &stepped[i])
		}); err != nil {
			return err
		}
		any := false
		for i, st := range stepped {
			if want := c.peers[i].hi - c.peers[i].lo; len(st.Progressed) != want || len(st.Done) != want {
				return fmt.Errorf("dist: worker %s reported %d islands, hosts %d", c.peers[i].addr, len(st.Progressed), want)
			}
			for _, b := range st.Progressed {
				any = any || b
			}
		}
		if !any {
			return nil
		}
		c.rounds++
		if c.ring > 1 {
			if err := c.migrate(); err != nil {
				return err
			}
		}
		if c.sopt.Checkpoint != "" && c.rounds%c.sopt.CheckpointEvery == 0 {
			if err := c.save(c.sopt.Checkpoint); err != nil {
				return err
			}
		}
		if c.sopt.MaxRounds > 0 && c.rounds-startRound >= c.sopt.MaxRounds {
			c.paused = !allDone(stepped)
			if c.paused && c.rounds%c.sopt.CheckpointEvery != 0 {
				if err := c.save(c.sopt.Checkpoint); err != nil {
					return err
				}
			}
			return nil
		}
	}
}

// allDone reports whether every island across every worker is exhausted.
// Exhaustion is unaffected by migration (immigrants consume no samples), so
// the pre-barrier flags are valid post-barrier too.
func allDone(stepped []steppedMsg) bool {
	for _, st := range stepped {
		for _, d := range st.Done {
			if !d {
				return false
			}
		}
	}
	return true
}

// migrate holds the barrier: every worker's emigrant payloads are collected
// before any commit is sent, then each payload goes to its ring successor.
// Selection and commit are island-local, so once the barrier ordering holds,
// the exchange is the single-process one.
func (c *coordinator) migrate() error {
	ems := make([]emigrantsMsg, len(c.peers))
	if err := c.eachIndexed(func(i int, p *peer) error {
		return p.w.request(MsgEmigrantsReq, struct{}{}, MsgEmigrants, &ems[i])
	}); err != nil {
		return err
	}
	// Barrier held: every selection is in hand. Route payloads.
	out := make([][]serialize.GenomeJSON, c.ring)
	for i, p := range c.peers {
		if len(ems[i].Out) != p.hi-p.lo {
			return fmt.Errorf("dist: worker %s sent %d emigrant sets, hosts %d islands", p.addr, len(ems[i].Out), p.hi-p.lo)
		}
		for j, gs := range ems[i].Out {
			out[p.lo+j] = gs
		}
	}
	if c.sent == nil {
		c.sent = make([]int, c.ring)
		c.recv = make([]int, c.ring)
	}
	commits := make(map[*peer]*commitMsg, len(c.peers))
	for i := 0; i < c.ring; i++ {
		dest := (i + 1) % c.ring
		p := c.ownerOf(dest)
		m := commits[p]
		if m == nil {
			m = &commitMsg{}
			commits[p] = m
		}
		m.Islands = append(m.Islands, commitIsland{Island: dest, Genomes: out[i]})
		c.sent[i] += len(out[i])
		c.recv[dest] += len(out[i])
	}
	if err := c.eachIndexed(func(_ int, p *peer) error {
		m := commits[p]
		if m == nil {
			return nil
		}
		return writeMsg(p.w, MsgCommit, *m)
	}); err != nil {
		return err
	}
	c.migrations++
	return nil
}

// save aggregates per-worker island snapshots into one standard checkpoint,
// byte-identical to what a single-process run would write at this barrier.
// Commits were written to each worker before the snapshot request on the
// same ordered connection, so every snapshot is post-migration.
func (c *coordinator) save(path string) error {
	snaps := make([]snapshotMsg, len(c.peers))
	if err := c.eachIndexed(func(i int, p *peer) error {
		return p.w.request(MsgSnapshotReq, struct{}{}, MsgSnapshot, &snaps[i])
	}); err != nil {
		return err
	}
	cp := &serialize.CheckpointJSON{
		Graph:            c.ev.Graph().Name,
		Config:           search.Fingerprint(c.sopt),
		Round:            c.rounds,
		Migrations:       c.migrations,
		MigrantsSent:     c.sent,
		MigrantsReceived: c.recv,
	}
	for i, p := range c.peers {
		if len(snaps[i].Islands) != p.hi-p.lo {
			return fmt.Errorf("dist: worker %s sent %d snapshots, hosts %d islands", p.addr, len(snaps[i].Islands), p.hi-p.lo)
		}
		cp.Islands = append(cp.Islands, snaps[i].Islands...)
	}
	data, err := serialize.EncodeCheckpoint(cp)
	if err != nil {
		return fmt.Errorf("dist: checkpoint: %w", err)
	}
	if err := serialize.AtomicWriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("dist: checkpoint: %w", err)
	}
	return nil
}

// finish aggregates per-worker results with the orchestrator's exact rules:
// strict-< best over ring order, summed sample counters.
func (c *coordinator) finish() (*core.Genome, *search.Stats, error) {
	results := make([]resultMsg, len(c.peers))
	if err := c.eachIndexed(func(i int, p *peer) error {
		return p.w.request(MsgResultReq, struct{}{}, MsgResult, &results[i])
	}); err != nil {
		return nil, nil, err
	}
	st := &search.Stats{
		Rounds: c.rounds, Migrations: c.migrations, BestIsland: -1, Paused: c.paused,
		MigrantsSent: c.sent, MigrantsReceived: c.recv,
	}
	gr := c.ev.Graph()
	bests := make([]*core.Genome, 0, c.ring)
	for i, p := range c.peers {
		if len(results[i].Stats) != p.hi-p.lo || len(results[i].Bests) != p.hi-p.lo {
			return nil, nil, fmt.Errorf("dist: worker %s sent %d results, hosts %d islands", p.addr, len(results[i].Stats), p.hi-p.lo)
		}
		for j, is := range results[i].Stats {
			st.IslandStats = append(st.IslandStats, is)
			st.Samples += is.Samples
			st.FeasibleSamples += is.FeasibleSamples
			st.MemoHits += is.MemoHits
			b, err := search.DecodeGenome(gr, results[i].Bests[j], true)
			if err != nil {
				return nil, nil, fmt.Errorf("dist: worker %s island %d best: %w", p.addr, p.lo+j, err)
			}
			bests = append(bests, b)
		}
	}
	best, bestIdx := search.AggregateBest(bests)
	st.BestIsland = bestIdx
	if best == nil {
		if c.paused {
			return nil, st, fmt.Errorf("dist: paused after %d rounds with no feasible genome yet (%d samples); resume to continue",
				st.Rounds, st.Samples)
		}
		return nil, st, fmt.Errorf("dist: no feasible genome found in %d samples across %d islands",
			st.Samples, c.ring)
	}
	return best, st, nil
}
