// Package eval is the evaluation environment of the paper (§4.4.4, §5.1.2):
// a modified Timeloop/MAESTRO-style analytic simulator that, given a graph
// partition and a memory configuration, reports external memory access
// (EMA), energy, latency, and bandwidth requirements, and checks buffer
// feasibility through the consumption-centric tiling footprints.
//
// Per-subgraph raw costs depend only on the subgraph's member set, so they
// are memoized aggressively — the genetic search re-evaluates overlapping
// subgraphs constantly and the cache is what makes 10^5-sample searches
// cheap.
package eval

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"cocco/internal/graph"
	"cocco/internal/hw"
	"cocco/internal/partition"
	"cocco/internal/tiling"
)

// Metric selects the mapping-cost metric M of the paper's cost functions.
type Metric int

const (
	// MetricEMA optimizes external memory access bytes (Formula 1 with
	// M = EMA; used in §5.2).
	MetricEMA Metric = iota
	// MetricEnergy optimizes energy in pJ (used in §5.3).
	MetricEnergy
)

func (m Metric) String() string {
	if m == MetricEnergy {
		return "energy"
	}
	return "EMA"
}

// Objective is the optimization objective. With Alpha == 0 it is the
// partition-only Formula 1; with Alpha > 0 it is the co-exploration
// Formula 2: BUF_SIZE + α·ΣCost_M (buffer size in bytes, energy in pJ).
type Objective struct {
	Metric Metric
	Alpha  float64
}

// SubgraphCost holds the partition-independent raw costs of one subgraph.
type SubgraphCost struct {
	// Members are the subgraph's node ids (ascending).
	Members []int

	// WeightBytes is the total weight footprint (and weight EMA per pass).
	WeightBytes int64
	// InBytes is the activation bytes loaded from DRAM (external producers'
	// tensors, each loaded exactly once thanks to full on-chip reuse).
	InBytes int64
	// OutBytes is the activation bytes written back to DRAM (tensors
	// consumed by later subgraphs or model outputs).
	OutBytes int64
	// ActFootprint is the on-chip activation requirement from the
	// consumption-centric scheme (MAIN+SIDE over all nodes).
	ActFootprint int64
	// MACs is the subgraph's multiply-accumulate count.
	MACs int64
	// ComputeCycles is the single-core, batch-1 compute time under each
	// layer's best PE-array mapping (internal/mapper).
	ComputeCycles int64
	// GLBAccessBytes approximates global-buffer traffic: every produced or
	// loaded byte written once, plus reads per consumer edge scaled by the
	// consumer's window-overlap factor.
	GLBAccessBytes int64

	// Err is non-nil if the tiling derivation failed; such a subgraph is
	// never feasible.
	Err error

	// cache is the cost cache holding this entry. The cost doubles as the
	// per-subgraph handle PartitionDelta carries on partitions, and it is
	// reused only by evaluators of the same cache: raw costs depend on
	// (graph, tiling config, core geometry), so a handle from another cache
	// (e.g. an Options.Init seed searched on different hardware) is treated
	// as dirty and costs never cross geometries.
	cache *costCache
}

// EMABytes is the subgraph's external traffic for one sample.
func (c *SubgraphCost) EMABytes() int64 { return c.WeightBytes + c.InBytes + c.OutBytes }

// shardBits/cacheShards fix the number of independently locked cost-cache
// segments. The parallel GA hits the cache from every worker on every sample,
// so a single mutex serializes the whole search; 64 shards keep contention
// negligible at any realistic core count for a few KiB of fixed overhead.
// The shard is chosen by the TOP bits of the key hash; the open-addressed
// probe inside a shard uses the low bits, so the two never correlate.
const (
	shardBits   = 6
	cacheShards = 1 << shardBits
)

// cacheEntry is one memoized subgraph cost. The key bytes live in the
// shard's append-only arena (off/klen), so an entry is 24 bytes + pointer
// with no per-entry string header, and the stored 64-bit hash lets probes
// skip full key comparisons on non-matches.
type cacheEntry struct {
	hash uint64
	off  uint32
	klen uint32
	c    *SubgraphCost
}

// cacheShard is one independently locked segment of the cost cache: an
// open-addressed slot table (linear probing, power-of-two sized, 0 = empty,
// else 1+index into entries) over an append-only entry array and key arena.
// Entries are never deleted or moved, so *SubgraphCost pointers handed out
// stay stable forever — the invariant delta handles rely on.
type cacheShard struct {
	mu      sync.Mutex
	slots   []int32
	entries []cacheEntry
	arena   []byte
}

// lookup returns the cost stored under (h, key), or nil. Caller holds mu.
func (s *cacheShard) lookup(h uint64, key []byte) *SubgraphCost {
	if len(s.slots) == 0 {
		return nil
	}
	mask := uint64(len(s.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		ei := s.slots[i]
		if ei == 0 {
			return nil
		}
		e := &s.entries[ei-1]
		if e.hash == h && e.klen == uint32(len(key)) &&
			bytes.Equal(s.arena[e.off:e.off+e.klen], key) {
			return e.c
		}
	}
}

// guardArena panics if appending klen key bytes to a shard arena already
// holding arenaLen bytes would push the new entry's offset+length past the
// uint32 range cacheEntry stores. Without the guard the uint32 conversions
// in insert silently truncate once a shard's arena crosses 4 GiB, corrupting
// every later entry's key window.
func guardArena(arenaLen, klen int) {
	if int64(arenaLen)+int64(klen) > math.MaxUint32 {
		panic(fmt.Sprintf("eval: cost-cache shard arena would grow to %d bytes, past the 4 GiB uint32 offset range", int64(arenaLen)+int64(klen)))
	}
}

// guardEntries panics if a shard holding n entries cannot accept another:
// slots store the 1-based entry index as an int32, so n+1 must stay within
// int32 range or place silently aliases an earlier entry.
func guardEntries(n int) {
	if int64(n)+1 > math.MaxInt32 {
		panic(fmt.Sprintf("eval: cost-cache shard entry count %d would overflow the int32 slot index", n+1))
	}
}

// insert stores c under (h, key), which must not be present; the key bytes
// are copied into the arena. Caller holds mu.
func (s *cacheShard) insert(h uint64, key []byte, c *SubgraphCost) {
	guardArena(len(s.arena), len(key))
	off := len(s.arena)
	s.arena = append(s.arena, key...)
	s.place(h, uint32(off), uint32(len(key)), c)
}

// place records the entry whose key bytes were just appended to the arena at
// off, growing the slot table at load factor 3/4. Caller holds mu.
func (s *cacheShard) place(h uint64, off, klen uint32, c *SubgraphCost) {
	guardEntries(len(s.entries))
	if len(s.slots) == 0 {
		s.slots = make([]int32, 64)
	}
	if (len(s.entries)+1)*4 > len(s.slots)*3 {
		grown := make([]int32, len(s.slots)*2)
		mask := uint64(len(grown) - 1)
		for ei := range s.entries {
			for i := s.entries[ei].hash & mask; ; i = (i + 1) & mask {
				if grown[i] == 0 {
					grown[i] = int32(ei + 1)
					break
				}
			}
		}
		s.slots = grown
	}
	s.entries = append(s.entries, cacheEntry{hash: h, off: off, klen: klen, c: c})
	mask := uint64(len(s.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		if s.slots[i] == 0 {
			s.slots[i] = int32(len(s.entries))
			return
		}
	}
}

// costCache is one shared subgraph-cost cache: cacheShards independently
// locked segments, each an open-addressed table over an append-only entry
// array and key arena. It is owned by the GraphContext and keyed by core
// geometry (hw.Core), because a subgraph's raw cost depends on the platform
// ONLY through the per-core compute-cycle table — memory capacities, buffer
// kind, core count, and batch all enter later, in Contribution. Every
// evaluator fanned out of one context with the same core geometry therefore
// shares one costCache read/write: in a DSE sweep only the first config per
// geometry pays cold costing and every sibling gets warm hits. The
// keep-first cold-miss contract (the first inserted *SubgraphCost wins,
// losers discard their duplicate) holds across sibling evaluators exactly
// as it holds across goroutines of one evaluator, so the pointer identity
// delta handles rely on is cache-wide, never per-evaluator.
type costCache struct {
	shards [cacheShards]cacheShard
}

// entries returns the number of distinct subgraphs the cache holds. It is
// fully deterministic under concurrency: the set of cached subgraphs depends
// only on which member sets were ever evaluated, not on which goroutine or
// sibling evaluator won a cold-miss race.
func (cc *costCache) entries() int64 {
	var n int64
	for i := range cc.shards {
		s := &cc.shards[i]
		s.mu.Lock()
		n += int64(len(s.entries))
		s.mu.Unlock()
	}
	return n
}

// Evaluator evaluates partitions of one graph on one platform.
// It is safe for concurrent use: the subgraph-cost cache is sharded N ways
// by key hash so concurrent lookups only contend within a shard.
//
// An Evaluator is a thin per-(platform, tiling-config) layer over a shared,
// immutable GraphContext: the context owns every graph-derived table, the
// Deriver template, and the per-core-geometry cost caches, while the
// evaluator adds only its platform, hit/call counters, and scratch pools.
// New builds a private context; GraphContext.NewEvaluator shares one across
// many evaluators (the batched-DSE fast path), and evaluators with the same
// core geometry share one cost cache through it.
type Evaluator struct {
	ctx      *GraphContext
	platform hw.Platform
	prefetch bool

	// cycles is the per-node mapper.NodeCycles table for platform.Core —
	// the only per-platform table subgraph costing needs (memoized on the
	// context per core geometry, shared read-only).
	cycles []int64

	// cache is the context's shared cost cache for platform.Core. Sibling
	// evaluators of the same geometry hold the same pointer; evaluators of
	// different geometries never do, so costs cannot cross geometries.
	cache *costCache

	// scratch pools per-goroutine evalScratch state (membership marks, the
	// tiling Deriver, and the member-key decode buffer), making the whole
	// cold path allocation-free apart from the SubgraphCost it produces.
	scratch sync.Pool

	// partPool pools partitionEval's prefetch-pass scratch (per-subgraph
	// weight shares and flags), keeping warm partition evaluations
	// allocation-free beyond the Result they return.
	partPool sync.Pool

	hits       atomic.Int64
	calls      atomic.Int64
	deltaReuse atomic.Int64
}

// evalScratch is the reusable per-goroutine state of one cold evaluation
// and of PartitionDelta's dirty-subgraph gather.
type evalScratch struct {
	inSet   *graph.Marks    // subgraph membership
	seenExt *graph.Marks    // external producers already charged
	der     *tiling.Deriver // nil when the tiling config is invalid
	members []int           // sorted members / dirty-member CSR
	keyBuf  []byte          // member-key build buffer
	off     []int           // dirty-member CSR offsets
	costs   []*SubgraphCost // PartitionDelta's per-subgraph costs
}

// EnablePrefetchCheck makes feasibility account for the weight prefetch of
// §5.1.2 ("prefetch weights of the next subgraph during the current
// computing"): consecutive multi-layer subgraphs must fit both weight sets
// in the weight buffer simultaneously. Off by default (single-buffered
// weights), matching the evaluation's main configuration; the ablation
// benchmarks quantify the difference. Call before the first evaluation.
func (e *Evaluator) EnablePrefetchCheck() { e.prefetch = true }

// New returns an Evaluator for g on the given platform, precomputing the
// per-node cost tables (weights, output bytes, MACs, best-mapping compute
// cycles, GLB replication factors) the subgraph costing sums over.
//
// New builds a private GraphContext per call. Callers evaluating one graph
// under many platform or memory configurations should build the context
// once with NewGraphContext and fan evaluators out of it — the results are
// bit-identical and the graph-derived cold path is paid once.
func New(g *graph.Graph, p hw.Platform, tcfg tiling.Config) (*Evaluator, error) {
	return NewGraphContext(g, tcfg).NewEvaluator(p)
}

// MustNew is New that panics on error.
func MustNew(g *graph.Graph, p hw.Platform, tcfg tiling.Config) *Evaluator {
	e, err := New(g, p, tcfg)
	if err != nil {
		panic(err)
	}
	return e
}

// Graph returns the evaluated graph.
func (e *Evaluator) Graph() *graph.Graph { return e.ctx.g }

// Context returns the shared graph context the evaluator was built over.
func (e *Evaluator) Context() *GraphContext { return e.ctx }

// Platform returns the platform.
func (e *Evaluator) Platform() hw.Platform { return e.platform }

// CacheStats reports THIS evaluator's memoization effectiveness (hits, total
// lookups) — the counters are per-evaluator even though the cache itself is
// shared per core geometry, so a DSE sweep can attribute warm hits to the
// config that made them. Lookups are deterministic for a fixed-seed search,
// but with concurrent callers (or sibling evaluators priming shared keys)
// hits may vary by a few counts across runs; use CacheEntries for a
// scheduling-independent measure.
func (e *Evaluator) CacheStats() (hits, calls int64) {
	return e.hits.Load(), e.calls.Load()
}

// DeltaStats reports how many subgraph costs PartitionDelta served straight
// from carried handles — lookups that never touched the cost cache (and so
// are invisible to CacheStats).
func (e *Evaluator) DeltaStats() (reused int64) { return e.deltaReuse.Load() }

// CacheEntries reports the number of distinct subgraphs in the SHARED cost
// cache this evaluator uses — sibling evaluators of the same core geometry
// report the same number, including entries a sibling computed. Unlike the
// per-evaluator hit counter it is fully deterministic under concurrency:
// the set of evaluated subgraphs depends only on the search trajectory, not
// on which goroutine won a cold-miss race (losers discard their duplicate,
// so an entry is inserted exactly once per distinct key).
func (e *Evaluator) CacheEntries() int64 { return e.cache.entries() }

// hashKey is 64-bit FNV-1a over the canonical member key — computed once per
// lookup; the top bits pick the shard and the full hash drives the
// open-addressed probe, so neither the shard choice nor the table walks the
// key again (only a final confirming compare on a hash match does).
func hashKey(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// Subgraph computes (or returns the memoized) raw cost of the subgraph with
// the given member ids. Members need not be sorted. The sort and key build
// happen in pooled scratch, so a warm call performs no allocations.
func (e *Evaluator) Subgraph(members []int) *SubgraphCost {
	sc := e.scratch.Get().(*evalScratch)
	sc.members = append(sc.members[:0], members...)
	sort.Ints(sc.members)
	c := e.lookupOrCompute(sc, sc.members)
	e.scratch.Put(sc)
	return c
}

// lookupOrCompute returns the cached cost of the subgraph with the given
// ascending members, computing and inserting it on a miss; the key is built
// in sc.keyBuf. Two goroutines (or two sibling evaluators sharing the cache)
// missing on the same cold key may both compute it; the insert re-checks
// under the lock and keeps the FIRST inserted *SubgraphCost, discarding the
// duplicate, so the pointer identity that delta handles (and entry
// stability) rely on holds even under a cold-miss race.
func (e *Evaluator) lookupOrCompute(sc *evalScratch, members []int) *SubgraphCost {
	sc.keyBuf = partition.AppendMemberKey(sc.keyBuf[:0], members)
	h := hashKey(sc.keyBuf)
	s := &e.cache.shards[h>>(64-shardBits)]
	e.calls.Add(1)
	s.mu.Lock()
	if c := s.lookup(h, sc.keyBuf); c != nil {
		s.mu.Unlock()
		e.hits.Add(1)
		return c
	}
	s.mu.Unlock()

	c := e.computeSubgraph(sc, members)

	s.mu.Lock()
	defer s.mu.Unlock()
	if first := s.lookup(h, sc.keyBuf); first != nil {
		return first
	}
	s.insert(h, sc.keyBuf, c)
	return c
}

// computeSubgraph prices one subgraph as table arithmetic over the member
// ids: every node-level quantity was precomputed in New, membership tests
// are epoch-stamped probes, and the tiling footprint comes from the pooled
// scratch Deriver — the only allocations are the returned SubgraphCost and
// its owned member slice. members is borrowed (scratch); it is copied.
func (e *Evaluator) computeSubgraph(sc *evalScratch, members []int) *SubgraphCost {
	c := &SubgraphCost{Members: append([]int(nil), members...), cache: e.cache}

	gc := e.ctx
	if gc.tcfgErr != nil {
		c.Err = fmt.Errorf("eval: subgraph %v: %w", c.Members, gc.tcfgErr)
		return c
	}
	fp, err := sc.der.TotalFootprint(c.Members)
	if err != nil {
		c.Err = fmt.Errorf("eval: subgraph %v: %w", c.Members, err)
		return c
	}
	c.ActFootprint = fp

	sc.inSet.Reset()
	for _, id := range c.Members {
		sc.inSet.Set(id)
	}
	sc.seenExt.Reset()
	for _, id := range c.Members {
		c.WeightBytes += gc.weightBytes[id]
		c.MACs += gc.macs[id]
		c.ComputeCycles += e.cycles[id]

		// Inputs: external producers, each counted once.
		for _, p := range gc.g.PredIDs(id) {
			pi := int(p)
			if !sc.inSet.Has(pi) && !sc.seenExt.Has(pi) {
				sc.seenExt.Set(pi)
				c.InBytes += gc.outBytes[pi]
			}
		}
		// Outputs: consumed outside the subgraph or a model output.
		succ := gc.g.SuccIDs(id)
		out := len(succ) == 0
		for _, s := range succ {
			if !sc.inSet.Has(int(s)) {
				out = true
				break
			}
		}
		if out {
			c.OutBytes += gc.outBytes[id]
		}
	}

	// Global-buffer traffic: every byte produced in (or loaded into) the
	// buffer is written once; every consumer reads its producer's tensor
	// with the window-overlap replication factor ceil(F/s) per dimension.
	c.GLBAccessBytes = c.InBytes
	for _, id := range c.Members {
		c.GLBAccessBytes += gc.outBytes[id] // write of produced tile stream
		rep := gc.rep[id]
		for _, p := range gc.g.PredIDs(id) {
			c.GLBAccessBytes += gc.outBytes[int(p)] * rep
		}
	}
	return c
}

// Fits reports whether the subgraph fits the memory configuration:
// activations in the global buffer and weights in the weight buffer for the
// separate design, or their sum in the shared capacity.
//
// Single-layer subgraphs always fit: a lone layer falls back to classic
// layer-level output-tiled execution (§2.2.1), which handles tensors and
// weights of any size by streaming — with the same EMA as our model already
// charges (weights, inputs, and outputs each move once).
func (e *Evaluator) Fits(c *SubgraphCost, mem hw.MemConfig) bool {
	if c.Err != nil {
		return false
	}
	if len(c.Members) == 1 {
		return true
	}
	if mem.Kind == hw.SharedBuffer {
		return c.ActFootprint+c.WeightBytes <= mem.GlobalBytes
	}
	return c.ActFootprint <= mem.GlobalBytes && c.WeightBytes <= mem.WeightBytes
}

// Result is the full evaluation of a partition under a memory configuration.
type Result struct {
	// EMABytes is total external traffic (weights once per subgraph,
	// activations scaled by batch).
	EMABytes int64
	// EnergyPJ is total energy: DRAM + buffers + MACs + crossbar.
	EnergyPJ float64
	// LatencyCycles is the end-to-end latency in core cycles.
	LatencyCycles int64
	// AvgBWBytesPerSec is EMABytes divided by the latency in seconds.
	AvgBWBytesPerSec float64
	// MaxActFootprint and MaxWgtFootprint are the largest per-subgraph
	// buffer requirements (per core).
	MaxActFootprint int64
	MaxWgtFootprint int64
	// Infeasible lists subgraph ids that do not fit the memory config.
	Infeasible []int
	// NumSubgraphs echoes the partition size.
	NumSubgraphs int
}

// Feasible reports whether every subgraph fits.
func (r *Result) Feasible() bool { return len(r.Infeasible) == 0 }

// LatencySeconds converts the cycle count at the platform frequency.
func (e *Evaluator) LatencySeconds(cycles int64) float64 {
	return float64(cycles) / float64(e.platform.Core.FreqHz)
}

// Contribution is one subgraph's share of the partition-level result under
// a given memory configuration, with multi-core and batch semantics applied.
type Contribution struct {
	EMABytes      int64
	EnergyPJ      float64
	LatencyCycles int64
	WgtPerCore    int64
	Fits          bool
}

// Contribution computes the subgraph's cost share under mem. Multi-core and
// batch semantics follow §5.4.2–5.4.3: the subgraph's weights are sharded
// across cores and rotated over the crossbar; batch samples reuse the
// resident weights and are spread over cores.
func (e *Evaluator) Contribution(c *SubgraphCost, mem hw.MemConfig) Contribution {
	cores := int64(e.platform.Cores)
	batch := int64(e.platform.Batch)
	en := e.platform.Energy
	core := e.platform.Core

	glbCap := mem.GlobalBytes
	wgtCap := mem.WeightBytes
	if mem.Kind == hw.SharedBuffer {
		wgtCap = mem.GlobalBytes
	}

	var out Contribution
	out.WgtPerCore = ceilDiv64(c.WeightBytes, cores)
	out.Fits = c.Err == nil
	if out.Fits && len(c.Members) > 1 {
		if mem.Kind == hw.SharedBuffer {
			out.Fits = c.ActFootprint+out.WgtPerCore <= mem.GlobalBytes
		} else {
			out.Fits = c.ActFootprint <= mem.GlobalBytes && out.WgtPerCore <= mem.WeightBytes
		}
	}

	actBytes := (c.InBytes + c.OutBytes) * batch
	out.EMABytes = c.WeightBytes + actBytes

	// Energy: DRAM for all external traffic; crossbar for weight rotation
	// (each weight byte traverses cores-1 hops to visit every core); buffer
	// accesses; MACs.
	out.EnergyPJ = en.DRAMBytes(out.EMABytes)
	if cores > 1 {
		out.EnergyPJ += en.Crossbar(c.WeightBytes * (cores - 1))
	}
	out.EnergyPJ += en.SRAMBytes(c.GLBAccessBytes*batch, glbCap)
	out.EnergyPJ += en.SRAMBytes(c.WeightBytes, wgtCap)
	out.EnergyPJ += en.MACs(c.MACs * batch)

	// Latency: compute spread over cores vs DRAM traffic over the
	// per-core 16 GB/s channels (each core loads its own shard/samples).
	// Compute cycles come from each layer's best PE-array mapping
	// (internal/mapper), derated further by the platform's residual
	// utilization factor for mapping losses the spatial model cannot see.
	compute := float64(c.ComputeCycles*batch) / core.Utilization
	computeCy := ceilDiv64(int64(compute), cores)
	dram := core.DRAMCycles(ceilDiv64(out.EMABytes, cores))
	out.LatencyCycles = maxI64(computeCy, dram)
	return out
}

// SubgraphMetric returns the subgraph's contribution to the given metric
// under mem, as summed by Partition. Greedy/DP/enumeration baselines use
// this to score candidate subgraphs locally (the metrics decompose as sums
// over subgraphs).
func (e *Evaluator) SubgraphMetric(c *SubgraphCost, mem hw.MemConfig, m Metric) float64 {
	ctr := e.Contribution(c, mem)
	if m == MetricEnergy {
		return ctr.EnergyPJ
	}
	return float64(ctr.EMABytes)
}

// Partition evaluates the whole partition under mem by summing per-subgraph
// contributions.
func (e *Evaluator) Partition(p *partition.Partition, mem hw.MemConfig) *Result {
	subs := p.Subgraphs()
	return e.partitionEval(len(subs), mem, func(si int) *SubgraphCost {
		return e.Subgraph(subs[si])
	})
}

// PartitionDelta evaluates the partition like Partition but through the
// per-subgraph cost handles carried on the partition itself: subgraphs whose
// handle survived the producing operator (TryModifyNode/TrySplit/TryMerge
// carry handles for every untouched subgraph) cost one pointer load, and only
// the dirty ones re-enter the cost cache. Their members are gathered in one
// counting pass over the assignment into pooled scratch, so a warm
// evaluation allocates nothing but the Result, plus the handle slice on a
// partition with no carried state (fresh, crossover-built, or deserialized).
//
// The result is bit-identical to Partition: both paths feed the same
// contributions through partitionEval in the same subgraph order, and a
// handle is only ever carried when the member set is provably unchanged.
// Handle fills mutate p's handle slice, so the caller must own p (single
// writer).
func (e *Evaluator) PartitionDelta(p *partition.Partition, mem hw.MemConfig) *Result {
	nsub := p.NumSubgraphs()
	sc := e.scratch.Get().(*evalScratch)
	costs := sc.costs[:0]
	dirty := 0
	for si := 0; si < nsub; si++ {
		c, _ := p.CostHandle(si).(*SubgraphCost)
		if c == nil || c.cache != e.cache {
			c = nil
			dirty++
		}
		costs = append(costs, c)
	}
	sc.costs = costs
	e.deltaReuse.Add(int64(nsub - dirty))
	if dirty > 0 {
		e.fillDirty(sc, p)
	}
	res := e.partitionEval(nsub, mem, func(si int) *SubgraphCost { return costs[si] })
	e.scratch.Put(sc)
	return res
}

// fillDirty costs every subgraph whose sc.costs slot is nil and stores the
// cost as that subgraph's handle. The dirty subgraphs' members are
// counting-sorted into sc.members (a count pass and a place pass over the
// assignment; ascending within each subgraph, since node ids are scanned in
// order): after the place pass off[si] is the end of subgraph si's window
// and the start of si+1's.
func (e *Evaluator) fillDirty(sc *evalScratch, p *partition.Partition) {
	nsub, n := len(sc.costs), e.ctx.g.Len()
	off := slices.Grow(sc.off[:0], nsub+1)[:nsub+1]
	clear(off)
	for id := 0; id < n; id++ {
		if a := p.Of(id); a >= 0 && sc.costs[a] == nil {
			off[a+1]++
		}
	}
	for si := 0; si < nsub; si++ {
		off[si+1] += off[si]
	}
	members := slices.Grow(sc.members[:0], off[nsub])[:off[nsub]]
	for id := 0; id < n; id++ {
		if a := p.Of(id); a >= 0 && sc.costs[a] == nil {
			members[off[a]] = id
			off[a]++
		}
	}
	start := 0
	for si, c := range sc.costs {
		if c == nil {
			c = e.lookupOrCompute(sc, members[start:off[si]])
			sc.costs[si] = c
			p.SetCostHandle(si, c)
		}
		start = off[si]
	}
	sc.off, sc.members = off, members
}

// partScratch is the pooled scratch of partitionEval's prefetch pass: the
// per-subgraph weight shares and flags the cross-subgraph double-buffering
// check re-reads after the main accumulation loop. Every field is fully
// overwritten for each subgraph, so no clearing is needed between calls.
type partScratch struct {
	wgts   []int64
	single []bool
	bad    []bool
}

// grow sizes the scratch slices to n subgraphs, reusing capacity.
func (ps *partScratch) grow(n int) {
	if cap(ps.wgts) < n {
		ps.wgts = make([]int64, n)
		ps.single = make([]bool, n)
		ps.bad = make([]bool, n)
	}
	ps.wgts = ps.wgts[:n]
	ps.single = ps.single[:n]
	ps.bad = ps.bad[:n]
}

// partitionEval is the shared aggregation core of Partition and
// PartitionDelta: costOf supplies subgraph si's raw cost, and the aggregates
// (sums, maxes, infeasibility, prefetch pass) are accumulated in ascending
// subgraph order so every caller produces bit-identical results, float
// summation included.
//
// With prefetch off the aggregates accumulate straight into the Result, so a
// warm delta evaluation allocates nothing but the Result itself (plus its
// Infeasible slice when subgraphs do not fit). The prefetch pass re-reads
// every subgraph's weight share and singleton flag after the main loop, so
// that path borrows pooled scratch instead of allocating per call.
func (e *Evaluator) partitionEval(nsub int, mem hw.MemConfig, costOf func(si int) *SubgraphCost) *Result {
	res := &Result{NumSubgraphs: nsub}
	var ps *partScratch
	if e.prefetch {
		ps, _ = e.partPool.Get().(*partScratch)
		if ps == nil {
			ps = &partScratch{}
		}
		ps.grow(nsub)
	}
	for si := 0; si < nsub; si++ {
		c := costOf(si)
		ctr := e.Contribution(c, mem)
		if ps != nil {
			ps.wgts[si] = ctr.WgtPerCore
			ps.single[si] = len(c.Members) <= 1
			ps.bad[si] = !ctr.Fits
		} else if !ctr.Fits {
			res.Infeasible = append(res.Infeasible, si)
		}
		if c.ActFootprint > res.MaxActFootprint {
			res.MaxActFootprint = c.ActFootprint
		}
		if ctr.WgtPerCore > res.MaxWgtFootprint {
			res.MaxWgtFootprint = ctr.WgtPerCore
		}
		res.EMABytes += ctr.EMABytes
		res.EnergyPJ += ctr.EnergyPJ
		res.LatencyCycles += ctr.LatencyCycles
	}
	if ps != nil {
		// Double-buffered weights: subgraph i and its prefetched successor
		// i+1 are resident together. Singletons stream (layer-level tiling
		// fallback) and are exempt, as in Fits.
		wgtCap := mem.WeightBytes
		if mem.Kind == hw.SharedBuffer {
			wgtCap = mem.GlobalBytes
		}
		for si := 0; si+1 < nsub; si++ {
			if ps.single[si] || ps.single[si+1] {
				continue
			}
			if ps.wgts[si]+ps.wgts[si+1] > wgtCap {
				ps.bad[si] = true
			}
		}
		for si := 0; si < nsub; si++ {
			if ps.bad[si] {
				res.Infeasible = append(res.Infeasible, si)
			}
		}
		e.partPool.Put(ps)
	}
	if res.LatencyCycles > 0 {
		res.AvgBWBytesPerSec = float64(res.EMABytes) / e.LatencySeconds(res.LatencyCycles)
	}
	return res
}

// MetricValue extracts the objective metric from a result.
func (r *Result) MetricValue(m Metric) float64 {
	if m == MetricEnergy {
		return r.EnergyPJ
	}
	return float64(r.EMABytes)
}

// Cost evaluates the paper's cost functions for the partition and memory
// configuration. Infeasible partitions return +Inf-like sentinel via ok =
// false; callers (the GA) repair rather than rank such genomes.
func (e *Evaluator) Cost(p *partition.Partition, mem hw.MemConfig, obj Objective) (cost float64, res *Result) {
	res = e.Partition(p, mem)
	cost = obj.Alpha * res.MetricValue(obj.Metric)
	if obj.Alpha == 0 {
		cost = res.MetricValue(obj.Metric)
	} else {
		cost += float64(mem.TotalBytes())
	}
	return cost, res
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func ceilDiv64(a, b int64) int64 {
	if b <= 0 {
		return a
	}
	return (a + b - 1) / b
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
