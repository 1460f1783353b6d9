// Package partition implements the paper's graph-level partition formalism
// (§4.1.1): a mapping P : V → ℕ assigning every compute layer to a subgraph,
// subject to two validity conditions — precedence (for every edge (u,v),
// P(u) ≤ P(v), so any layer is computed before use) and connectivity (every
// subgraph is weakly connected in G, "otherwise meaningless").
//
// Subgraph ids double as the schedule: subgraphs execute in ascending id
// order (§5.1.2 schedules subgraphs in topological order).
package partition

import (
	"fmt"
	"math"
	"sort"

	"cocco/internal/graph"
)

// Unassigned marks nodes that do not belong to any subgraph (OpInput nodes).
const Unassigned = -1

// Partition assigns each compute node of a graph to a subgraph.
// The zero value is unusable; construct with Singletons, Whole, or From.
type Partition struct {
	g      *graph.Graph
	assign []int // node id → subgraph id, Unassigned for inputs
	count  int   // number of subgraphs

	// costs is the per-subgraph evaluation cache: costs[s] is an opaque cost
	// handle owned by the evaluation layer (nil = dirty). Handles are carried
	// across TryModifyNode/TrySplit/TryMerge for subgraphs whose member set
	// is unchanged, so the evaluator re-derives costs only for the subgraphs
	// an operator actually touched. A nil slice means no cache.
	//
	// The cache makes a Partition single-writer: fills must come from the
	// goroutine that owns the partition (readers of a committed, shared
	// partition must not trigger fills concurrently with other writers).
	costs []any

	// hash caches AssignHash (0 = not yet computed). The operator pipeline
	// fills it for free during normalize's final relabel pass; Clone copies
	// it, so un-mutated offspring — exactly the duplicates a memo catches —
	// hash in O(1).
	hash uint64
}

// hashPrime/hashOffset are the FNV-1a constants AssignHash folds labels with.
const (
	hashPrime  = 1099511628211
	hashOffset = 14695981039346656037
)

// AssignHash returns a 64-bit content hash of the assignment vector (labels
// folded FNV-1a style, Unassigned as 0xFFFFFFFF), for memo tables that
// verify matches exactly and only need a cheap discriminator. Computed
// lazily and cached; partitions produced by the operator pipeline carry it
// precomputed. Single-writer like the other caches.
func (p *Partition) AssignHash() uint64 {
	if p.hash == 0 {
		h := uint64(hashOffset)
		for _, a := range p.assign {
			h = (h ^ uint64(uint32(a))) * hashPrime
		}
		p.hash = h
	}
	return p.hash
}

// AppendMemberKey appends the canonical subgraph cache key of members to dst
// and returns it, 4 bytes per id; pass dst[:0] to build into a reusable
// scratch buffer. Callers must pass ids in ascending order for the key to be
// canonical. Ids outside [0, 2^32) would alias another subgraph's key, so
// they panic instead of silently corrupting cost caches.
func AppendMemberKey(dst []byte, members []int) []byte {
	for _, id := range members {
		if id < 0 || uint64(id) > math.MaxUint32 {
			panic(fmt.Sprintf("partition: node id %d outside the 32-bit cache-key range", id))
		}
		dst = append(dst, byte(id>>24), byte(id>>16), byte(id>>8), byte(id))
	}
	return dst
}

// AppendKeyMembers decodes a canonical member key back into its sorted member
// ids, appending to dst (pass dst[:0] to reuse a scratch buffer). The key is
// the member list, so decoding never needs the assignment vector. Inverse of
// AppendMemberKey.
func AppendKeyMembers(dst []int, key []byte) []int {
	n := len(key) / 4
	for i := 0; i < n; i++ {
		dst = append(dst, int(uint32(key[4*i])<<24|uint32(key[4*i+1])<<16|
			uint32(key[4*i+2])<<8|uint32(key[4*i+3])))
	}
	return dst
}

// CostHandle returns the opaque evaluation handle of subgraph s, or nil if
// the subgraph is dirty (membership changed since the handle was set, or it
// was never evaluated).
func (p *Partition) CostHandle(s int) any {
	if p.costs == nil {
		return nil
	}
	return p.costs[s]
}

// SetCostHandle attaches an evaluation handle to subgraph s. Ops carry the
// handle to derived partitions whenever the member set is preserved, so its
// value must be a pure function of the member set plus whatever context the
// handle itself records (the evaluator's handles are the cached costs, which
// name the cost cache they came from).
func (p *Partition) SetCostHandle(s int, h any) {
	if p.costs == nil {
		p.costs = make([]any, p.count)
	}
	p.costs[s] = h
}

// Singletons returns the partition with every compute node in its own
// subgraph, numbered in topological order (the greedy baseline's starting
// point).
func Singletons(g *graph.Graph) *Partition {
	p := &Partition{g: g, assign: make([]int, g.Len())}
	for i := range p.assign {
		p.assign[i] = Unassigned
	}
	for _, id := range g.ComputeIDs() {
		p.assign[id] = p.count
		p.count++
	}
	return p
}

// Whole returns the partition with all compute nodes in one subgraph.
// It is valid only if the compute nodes are weakly connected.
func Whole(g *graph.Graph) *Partition {
	p := &Partition{g: g, assign: make([]int, g.Len()), count: 1}
	for i := range p.assign {
		p.assign[i] = Unassigned
	}
	for _, id := range g.ComputeIDs() {
		p.assign[id] = 0
	}
	return p
}

// From builds a partition from an explicit assignment (node id → subgraph
// id; input nodes must be Unassigned). The assignment is normalized (ids
// renumbered into schedule order) and validated.
func From(g *graph.Graph, assign []int) (*Partition, error) {
	if len(assign) != g.Len() {
		return nil, fmt.Errorf("partition: assignment length %d != %d nodes", len(assign), g.Len())
	}
	p := &Partition{g: g, assign: append([]int(nil), assign...)}
	for _, n := range g.Nodes() {
		if n.Kind == graph.OpInput {
			if p.assign[n.ID] != Unassigned {
				return nil, fmt.Errorf("partition: input node %d assigned to subgraph %d", n.ID, p.assign[n.ID])
			}
		} else if p.assign[n.ID] < 0 {
			return nil, fmt.Errorf("partition: compute node %d unassigned", n.ID)
		}
	}
	p.densifyLabels()
	o := getOps()
	defer putOps(o)
	if err := o.normalize(p); err != nil {
		return nil, err
	}
	if err := o.validate(p); err != nil {
		return nil, err
	}
	return p, nil
}

// densifyLabels sets p.count from the raw assignment, remapping the labels
// into [0, #labels) first when the raw label space is out of proportion to
// the graph: the dense operator pipeline sizes its scratch by max label + 1,
// which is fine for every internal producer (labels stay below the node
// count) but must not let an arbitrary From/FromRepaired input — e.g. a
// hand-edited partition JSON with one label of 2^33 — demand gigabytes. The
// remap preserves first-appearance order; the final labels come from the
// quotient schedule order regardless.
func (p *Partition) densifyLabels() {
	maxL := -1
	for _, a := range p.assign {
		if a > maxL {
			maxL = a
		}
	}
	if maxL < 2*len(p.assign)+2 {
		p.count = maxL + 1
		return
	}
	remap := make(map[int]int)
	for id, a := range p.assign {
		if a < 0 {
			continue
		}
		d, ok := remap[a]
		if !ok {
			d = len(remap)
			remap[a] = d
		}
		p.assign[id] = d
	}
	p.count = len(remap)
}

// FromRepaired builds a partition from an explicit assignment like From, but
// repairs disconnected subgraphs by splitting them into weakly connected
// components instead of rejecting them. It still fails if the quotient graph
// is cyclic (unschedulable).
func FromRepaired(g *graph.Graph, assign []int) (*Partition, error) {
	if len(assign) != g.Len() {
		return nil, fmt.Errorf("partition: assignment length %d != %d nodes", len(assign), g.Len())
	}
	p := &Partition{g: g, assign: append([]int(nil), assign...)}
	for _, n := range g.Nodes() {
		if n.Kind == graph.OpInput {
			p.assign[n.ID] = Unassigned
		} else if p.assign[n.ID] < 0 {
			return nil, fmt.Errorf("partition: compute node %d unassigned", n.ID)
		}
	}
	p.densifyLabels()
	o := getOps()
	defer putOps(o)
	if err := o.repair(p); err != nil {
		return nil, err
	}
	return p, nil
}

// Graph returns the underlying graph.
func (p *Partition) Graph() *graph.Graph { return p.g }

// NumSubgraphs returns the number of subgraphs.
func (p *Partition) NumSubgraphs() int { return p.count }

// Of returns the subgraph id of node id (Unassigned for inputs).
func (p *Partition) Of(id int) int { return p.assign[id] }

// Assignment returns a copy of the raw assignment slice.
func (p *Partition) Assignment() []int { return append([]int(nil), p.assign...) }

// Clone returns a deep copy. The cost cache is copied into a fresh backing
// array (the handles themselves are shared; they are immutable), so the
// clone's owner can fill its cache independently.
func (p *Partition) Clone() *Partition {
	q := &Partition{g: p.g, assign: append([]int(nil), p.assign...), count: p.count, hash: p.hash}
	if p.costs != nil {
		q.costs = append([]any(nil), p.costs...)
	}
	return q
}

// Members returns the node ids of subgraph s in ascending order.
func (p *Partition) Members(s int) []int {
	return p.AppendMembers(nil, s)
}

// AppendMembers appends the node ids of subgraph s to dst in ascending order
// and returns it — Members without the per-call allocation, for callers that
// scan subgraphs in a loop (operator helpers, the greedy baseline). Pass
// dst[:0] to reuse a scratch buffer.
func (p *Partition) AppendMembers(dst []int, s int) []int {
	for id, a := range p.assign {
		if a == s {
			dst = append(dst, id)
		}
	}
	return dst
}

// Subgraphs returns all subgraphs' members, indexed by subgraph id.
func (p *Partition) Subgraphs() [][]int {
	out := make([][]int, p.count)
	for id, a := range p.assign {
		if a >= 0 {
			out[a] = append(out[a], id)
		}
	}
	return out
}

// Key returns a canonical string identity of the partition, usable as a map
// key for memoization and dedup.
func (p *Partition) Key() string {
	return string(p.AppendKey(make([]byte, 0, len(p.assign)*4)))
}

// AppendKey appends the canonical identity bytes of the partition to dst and
// returns it — Key without the string conversion, for callers building memo
// keys into a reusable scratch buffer. Each label is packed into 4 bytes
// (Unassigned as 0xFFFFFFFF); labels outside [0, 2^32-1) would alias another
// partition's key, so they panic like AppendMemberKey instead of silently
// colliding (the historical 2-byte packing aliased partitions with ≥ 2^16
// subgraphs, and Unassigned with label 0xFFFF).
func (p *Partition) AppendKey(dst []byte) []byte {
	for _, a := range p.assign {
		if a != Unassigned && (a < 0 || uint64(a) >= math.MaxUint32) {
			panic(fmt.Sprintf("partition: subgraph label %d outside the 32-bit key range", a))
		}
		dst = append(dst, byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
	}
	return dst
}

// Validate checks both validity conditions: precedence on every edge between
// compute nodes and weak connectivity of every subgraph.
func (p *Partition) Validate() error {
	o := getOps()
	defer putOps(o)
	return o.validate(p)
}

// --- mutation primitives (used by the GA, SA, and repair) -----------------

// TryModifyNode reassigns node u to subgraph target (an existing id or
// p.NumSubgraphs() for a fresh subgraph) and returns the repaired, validated
// result, or an error if the move is unschedulable. The receiver is not
// modified. Wraps Ops.ModifyNodeInto on a pooled workspace.
func (p *Partition) TryModifyNode(u, target int) (*Partition, error) {
	o := getOps()
	q, err := o.ModifyNodeInto(nil, p, u, target)
	putOps(o)
	return q, err
}

// TrySplit splits subgraph s into the given parts (a disjoint cover of its
// members) and returns the repaired result. The receiver is not modified.
// Wraps Ops.SplitInto on a pooled workspace.
func (p *Partition) TrySplit(s int, parts [][]int) (*Partition, error) {
	o := getOps()
	q, err := o.SplitInto(nil, p, s, parts)
	putOps(o)
	return q, err
}

// TryMerge merges subgraphs a and b and returns the repaired result, or an
// error if the merge is unschedulable (e.g. a path a→c→b through a third
// subgraph) — the paper's merge-subgraph mutation with validity guarantee.
// The receiver is not modified. Wraps Ops.MergeInto on a pooled workspace.
func (p *Partition) TryMerge(a, b int) (*Partition, error) {
	o := getOps()
	q, err := o.MergeInto(nil, p, a, b)
	putOps(o)
	return q, err
}

// CrossEdges returns the tensors crossing subgraph boundaries: for each
// producer node whose output is consumed by a later subgraph (or is a model
// output), the set of consuming subgraphs. Used by cost models to decide
// which activations hit DRAM.
func (p *Partition) CrossEdges() map[int][]int {
	o := getOps()
	defer putOps(o)
	o.labels.Grow(p.count)
	out := map[int][]int{}
	for _, u := range p.g.ComputeIDs() {
		su := p.assign[u]
		o.labels.Reset()
		for _, v := range p.g.SuccIDs(u) {
			sv := p.assign[int(v)]
			if sv != su && sv != Unassigned && !o.labels.Has(sv) {
				o.labels.Set(sv)
				out[u] = append(out[u], sv)
			}
		}
		if len(out[u]) > 1 {
			sort.Ints(out[u])
		}
	}
	return out
}
