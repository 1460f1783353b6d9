package partition_test

// Native fuzz targets for the partition-operator invariants the delta
// evaluation layer leans on: every successful TryModifyNode/TrySplit/TryMerge
// must yield a valid schedulable partition (precedence + connectivity +
// acyclic quotient, all checked by Validate), keep the assignment vector a
// proper partition of the compute nodes, and carry per-subgraph opaque cost
// handles only when the member set is unchanged — a stale carry is exactly the bug that would silently corrupt
// incremental evaluation.

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"cocco/internal/graph"
	"cocco/internal/partition"
	"cocco/internal/testutil"
)

// checkInvariants asserts validity and cache integrity of p.
func checkInvariants(t *testing.T, g *graph.Graph, p *partition.Partition, op string) {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatalf("%s: invalid partition: %v", op, err)
	}
	// The assignment vector must be a partition of the compute nodes with
	// dense subgraph ids [0, count).
	seen := make([]bool, p.NumSubgraphs())
	for _, n := range g.Nodes() {
		s := p.Of(n.ID)
		if n.Kind == graph.OpInput {
			if s != partition.Unassigned {
				t.Fatalf("%s: input node %d assigned to %d", op, n.ID, s)
			}
			continue
		}
		if s < 0 || s >= p.NumSubgraphs() {
			t.Fatalf("%s: node %d has out-of-range subgraph %d (count %d)", op, n.ID, s, p.NumSubgraphs())
		}
		seen[s] = true
	}
	for s, ok := range seen {
		if !ok {
			t.Fatalf("%s: subgraph id %d has no members", op, s)
		}
	}
	// Cache integrity: any carried handle must match a freshly computed
	// canonical key of the subgraph's current member set.
	for s := 0; s < p.NumSubgraphs(); s++ {
		fresh := memberKey(p, s)
		if h := p.CostHandle(s); h != nil {
			if key, ok := h.(string); !ok || key != fresh {
				t.Fatalf("%s: subgraph %d carries a stale cost handle", op, s)
			}
		}
	}
}

// memberKey is the canonical member key of subgraph s as a string.
func memberKey(p *partition.Partition, s int) string {
	return string(partition.AppendMemberKey(nil, p.Members(s)))
}

// tagHandles stamps every subgraph's cost handle with its canonical member
// key, standing in for the evaluator's *SubgraphCost (which likewise depends
// only on the member set).
func tagHandles(p *partition.Partition) {
	for s := 0; s < p.NumSubgraphs(); s++ {
		p.SetCostHandle(s, memberKey(p, s))
	}
}

// FuzzPartitionOps drives random operator sequences over seeded random DAGs.
func FuzzPartitionOps(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 0, 2, 1})
	f.Add(int64(7), []byte{2, 2, 2, 0, 0, 1, 1, 0, 2})
	f.Add(int64(42), []byte{1, 0, 2, 1, 0, 2, 1, 0})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		g := testutil.RandomGraph(seed%16, 16+int(uint64(seed)%16))
		rng := rand.New(rand.NewSource(seed))
		p := partition.Singletons(g)
		tagHandles(p)
		nodes := g.ComputeNodes()
		for _, b := range ops {
			var q *partition.Partition
			var err error
			var op string
			switch b % 3 {
			case 0:
				op = "TryModifyNode"
				u := nodes[rng.Intn(len(nodes))]
				q, err = p.TryModifyNode(u, rng.Intn(p.NumSubgraphs()+1))
			case 1:
				op = "TrySplit"
				s := rng.Intn(p.NumSubgraphs())
				members := p.Members(s)
				if len(members) < 2 {
					continue
				}
				// A random bipartition; disconnected halves are legal (the op
				// repairs them into components).
				var a, bp []int
				for _, id := range members {
					if rng.Intn(2) == 0 {
						a = append(a, id)
					} else {
						bp = append(bp, id)
					}
				}
				if len(a) == 0 || len(bp) == 0 {
					continue
				}
				q, err = p.TrySplit(s, [][]int{a, bp})
			default:
				op = "TryMerge"
				if p.NumSubgraphs() < 2 {
					continue
				}
				x := rng.Intn(p.NumSubgraphs())
				y := rng.Intn(p.NumSubgraphs())
				if x == y {
					continue
				}
				q, err = p.TryMerge(x, y)
			}
			if err != nil {
				continue // unschedulable move; the receiver must be unchanged
			}
			checkInvariants(t, g, q, op)
			p = q
			tagHandles(p) // dirty subgraphs get fresh handles, like the evaluator
		}
	})
}

// FuzzOpsWorkspace drives random op streams through ONE reused Ops workspace
// and destination chain — the GA's steady-state usage pattern. Beyond the
// per-op invariants of FuzzPartitionOps it specifically hunts scratch-reuse
// bugs: stale epoch marks, under-grown buffers when the graph or label space
// changes between calls, and destination recycling after rejected moves.
func FuzzOpsWorkspace(f *testing.F) {
	f.Add(int64(3), []byte{0, 1, 2, 2, 1, 0, 0, 1})
	f.Add(int64(11), []byte{2, 0, 2, 0, 2, 0, 1, 1, 1})
	f.Add(int64(29), []byte{1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		o := partition.NewOps()
		// Two graphs of different sizes, alternated mid-stream, so the
		// workspace must regrow correctly.
		graphs := []*graph.Graph{
			testutil.RandomGraph(seed%8, 10+int(uint64(seed)%10)),
			testutil.RandomGraph(seed%8+100, 24+int(uint64(seed)%12)),
		}
		for gi, g := range graphs {
			rng := rand.New(rand.NewSource(seed + int64(gi)))
			p := partition.Singletons(g)
			tagHandles(p)
			nodes := g.ComputeNodes()
			var spare *partition.Partition // retired states recycled as destinations
			for _, b := range ops {
				var q *partition.Partition
				var err error
				var op string
				switch b % 3 {
				case 0:
					op = "ModifyNodeInto"
					u := nodes[rng.Intn(len(nodes))]
					q, err = o.ModifyNodeInto(spare, p, u, rng.Intn(p.NumSubgraphs()+1))
				case 1:
					op = "SplitInto"
					s := rng.Intn(p.NumSubgraphs())
					members := p.Members(s)
					if len(members) < 2 {
						continue
					}
					var a, bp []int
					for _, id := range members {
						if rng.Intn(2) == 0 {
							a = append(a, id)
						} else {
							bp = append(bp, id)
						}
					}
					if len(a) == 0 || len(bp) == 0 {
						continue
					}
					q, err = o.SplitInto(spare, p, s, [][]int{a, bp})
				default:
					op = "MergeInto"
					if p.NumSubgraphs() < 2 {
						continue
					}
					x := rng.Intn(p.NumSubgraphs())
					y := rng.Intn(p.NumSubgraphs())
					if x == y {
						continue
					}
					q, err = o.MergeInto(spare, p, x, y)
				}
				if err != nil {
					// Rejected move: the receiver must be unchanged, and the
					// destination (if any) stays with the workspace.
					spare = nil
					checkInvariants(t, g, p, op+"(rejected receiver)")
					continue
				}
				checkInvariants(t, g, q, op)
				spare = nil
				if q != p {
					spare = p // recycle the retired state as the next destination
				}
				p = q
				tagHandles(p)
			}
		}
	})
}

// decodeMemberKey unpacks a canonical member key back into ids, independently
// of the production decoder AppendKeyMembers.
func decodeMemberKey(key []byte) []int {
	ids := make([]int, 0, len(key)/4)
	for i := 0; i+4 <= len(key); i += 4 {
		ids = append(ids, int(binary.BigEndian.Uint32(key[i:i+4])))
	}
	return ids
}

// FuzzMemberKey checks round-trip (through both the reference decoder and
// AppendKeyMembers) and collision-freedom of the canonical member-key packing
// for arbitrary in-range id sets.
func FuzzMemberKey(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 2})
	f.Add([]byte{255, 255, 255, 255, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		ids := make([]int, 0, len(data)/4)
		for i := 0; i+4 <= len(data); i += 4 {
			ids = append(ids, int(binary.BigEndian.Uint32(data[i:i+4])))
		}
		sort.Ints(ids)
		// Dedup: member sets are sets.
		uniq := ids[:0]
		for i, id := range ids {
			if i == 0 || id != ids[i-1] {
				uniq = append(uniq, id)
			}
		}
		key := partition.AppendMemberKey(nil, uniq)
		if len(key) != 4*len(uniq) {
			t.Fatalf("key length %d for %d ids", len(key), len(uniq))
		}
		for _, back := range [][]int{decodeMemberKey(key), partition.AppendKeyMembers(nil, key)} {
			if len(back) != len(uniq) {
				t.Fatalf("round-trip length %d != %d", len(back), len(uniq))
			}
			for i := range back {
				if back[i] != uniq[i] {
					t.Fatalf("round-trip mismatch at %d: %d != %d", i, back[i], uniq[i])
				}
			}
		}
		// Injectivity: perturbing any id must change the key.
		if len(uniq) > 0 {
			mut := append([]int(nil), uniq...)
			if mut[0] < 1<<32-1 {
				mut[0]++
			} else {
				mut[0]--
			}
			sort.Ints(mut)
			if bytes.Equal(partition.AppendMemberKey(nil, mut), key) {
				t.Fatalf("distinct member sets share key: %v vs %v", uniq, mut)
			}
		}
	})
}

// TestMemberKeyGuard pins the 2^32 aliasing guard: out-of-range ids must
// panic rather than silently alias another subgraph's cache key.
func TestMemberKeyGuard(t *testing.T) {
	mustPanic := func(name string, ids []int) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: AppendMemberKey did not panic", name)
			}
		}()
		partition.AppendMemberKey(nil, ids)
	}
	mustPanic("negative id", []int{-1})
	if strconv.IntSize == 64 {
		// Non-constant shift so the expression compiles on 32-bit platforms
		// where the guard skips this case.
		one := 1
		mustPanic("id over 2^32", []int{one << 32})
	}
}
