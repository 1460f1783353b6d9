package partition

// The reference oracle for the dense mutation workspace: a verbatim copy of
// the retired map-based repair/normalize/carryFrom pipeline and the
// Clone-then-repair Try* operators built on it. The equivalence tests drive
// randomized operator sequences through both implementations and require
// bit-identical outcomes — assignment vector, subgraph count, carried cost
// handles, and error/no-error agreement — so any behavioral drift in
// the Ops rewrite shows up as a readable diff against known-good code rather
// than as a silent search-trajectory change.

import (
	"math/rand"
	"testing"

	"cocco/internal/graph"
	"cocco/internal/testutil"
)

// oracleCarryFrom is the retired carryFrom.
func oracleCarryFrom(q, p *Partition, touched ...int) {
	if p.costs == nil {
		return
	}
	q.costs = make([]any, q.count)
	for id, a := range p.assign {
		if a < 0 {
			continue
		}
		skip := false
		for _, t := range touched {
			if a == t {
				skip = true
				break
			}
		}
		if skip {
			continue
		}
		q.costs[q.assign[id]] = p.costs[a]
	}
}

// oracleNormalize is the retired map-based normalize.
func oracleNormalize(p *Partition) error {
	oldIDs := map[int]int{}
	for _, a := range p.assign {
		if a >= 0 {
			if _, ok := oldIDs[a]; !ok {
				oldIDs[a] = len(oldIDs)
			}
		}
	}
	n := len(oldIDs)
	dense := make([]int, len(p.assign))
	for id, a := range p.assign {
		if a < 0 {
			dense[id] = Unassigned
		} else {
			dense[id] = oldIDs[a]
		}
	}
	adj := make([]map[int]bool, n)
	indeg := make([]int, n)
	for i := range adj {
		adj[i] = map[int]bool{}
	}
	for _, u := range p.g.ComputeIDs() {
		su := dense[u]
		for _, v := range p.g.Succ(u) {
			sv := dense[v]
			if sv == Unassigned || sv == su {
				continue
			}
			if !adj[su][sv] {
				adj[su][sv] = true
				indeg[sv]++
			}
		}
	}
	minNode := make([]int, n)
	for i := range minNode {
		minNode[i] = int(^uint(0) >> 1)
	}
	for id, s := range dense {
		if s >= 0 && id < minNode[s] {
			minNode[s] = id
		}
	}
	ready := []int{}
	for s := 0; s < n; s++ {
		if indeg[s] == 0 {
			ready = append(ready, s)
		}
	}
	order := make([]int, 0, n)
	newID := make([]int, n)
	for len(ready) > 0 {
		best := 0
		for i := 1; i < len(ready); i++ {
			if minNode[ready[i]] < minNode[ready[best]] {
				best = i
			}
		}
		s := ready[best]
		ready = append(ready[:best], ready[best+1:]...)
		newID[s] = len(order)
		order = append(order, s)
		for t := range adj[s] {
			indeg[t]--
			if indeg[t] == 0 {
				ready = append(ready, t)
			}
		}
	}
	if len(order) != n {
		return errOracleCyclic
	}
	for id, s := range dense {
		if s == Unassigned {
			p.assign[id] = Unassigned
		} else {
			p.assign[id] = newID[s]
		}
	}
	p.count = n
	return nil
}

type oracleErr string

func (e oracleErr) Error() string { return string(e) }

const errOracleCyclic = oracleErr("partition: quotient graph is cyclic (unschedulable)")

// oracleRepair is the retired Members-scan repair.
func oracleRepair(p *Partition) (*Partition, error) {
	next := 0
	for _, a := range p.assign {
		if a >= next {
			next = a + 1
		}
	}
	for s := 0; s < next; s++ {
		members := p.Members(s)
		if len(members) <= 1 {
			continue
		}
		set := make(map[int]bool, len(members))
		for _, id := range members {
			set[id] = true
		}
		comps := p.g.ConnectedComponents(set)
		for i := 1; i < len(comps); i++ {
			for _, id := range comps[i] {
				p.assign[id] = next
			}
			next++
		}
	}
	p.count = next
	if err := oracleNormalize(p); err != nil {
		return nil, err
	}
	return p, nil
}

// oracleTryModifyNode / oracleTrySplit / oracleTryMerge are the retired
// Clone-then-repair operators.
func oracleTryModifyNode(p *Partition, u, target int) (*Partition, error) {
	if p.assign[u] == Unassigned {
		return nil, oracleErr("cannot move input")
	}
	if target < 0 || target > p.count {
		return nil, oracleErr("target out of range")
	}
	src := p.assign[u]
	q := p.Clone()
	q.assign[u] = target
	if target == p.count {
		q.count++
	}
	q, err := oracleRepair(q)
	if err != nil {
		return nil, err
	}
	oracleCarryFrom(q, p, src, target)
	return q, nil
}

func oracleTrySplit(p *Partition, s int, parts [][]int) (*Partition, error) {
	members := p.Members(s)
	seen := map[int]bool{}
	total := 0
	for _, part := range parts {
		for _, id := range part {
			if p.assign[id] != s {
				return nil, oracleErr("node not in subgraph")
			}
			if seen[id] {
				return nil, oracleErr("node in multiple parts")
			}
			seen[id] = true
			total++
		}
	}
	if total != len(members) {
		return nil, oracleErr("parts do not cover")
	}
	q := p.Clone()
	for i, part := range parts {
		label := s
		if i > 0 {
			label = q.count
			q.count++
		}
		for _, id := range part {
			q.assign[id] = label
		}
	}
	q, err := oracleRepair(q)
	if err != nil {
		return nil, err
	}
	oracleCarryFrom(q, p, s)
	return q, nil
}

func oracleTryMerge(p *Partition, a, b int) (*Partition, error) {
	if a == b {
		return nil, oracleErr("self merge")
	}
	if a >= p.count || b >= p.count || a < 0 || b < 0 {
		return nil, oracleErr("out of range")
	}
	q := p.Clone()
	for id, s := range q.assign {
		if s == b {
			q.assign[id] = a
		}
	}
	q, err := oracleRepair(q)
	if err != nil {
		return nil, err
	}
	oracleCarryFrom(q, p, a, b)
	return q, nil
}

// requireSamePartition fails unless got and want agree on every observable:
// assignment, count, and carried cost handles.
func requireSamePartition(t *testing.T, step int, op string, got, want *Partition) {
	t.Helper()
	if got.count != want.count {
		t.Fatalf("step %d %s: count %d != oracle %d", step, op, got.count, want.count)
	}
	for id := range want.assign {
		if got.assign[id] != want.assign[id] {
			t.Fatalf("step %d %s: assign[%d] = %d != oracle %d",
				step, op, id, got.assign[id], want.assign[id])
		}
	}
	if (got.costs == nil) != (want.costs == nil) {
		t.Fatalf("step %d %s: cache presence differs (costs %v/%v)",
			step, op, got.costs != nil, want.costs != nil)
	}
	for s := 0; s < want.count; s++ {
		if want.costs != nil && got.costs[s] != want.costs[s] {
			t.Fatalf("step %d %s: carried cost handle of subgraph %d differs", step, op, s)
		}
	}
}

// tagOracleHandles stamps every subgraph's cost handle with its canonical
// member key, standing in for the evaluator's *SubgraphCost.
func tagOracleHandles(p *Partition) {
	for s := 0; s < p.count; s++ {
		p.SetCostHandle(s, string(AppendMemberKey(nil, p.Members(s))))
	}
}

// TestOpsMatchOracle drives randomized operator sequences over random DAGs
// through the dense workspace and the retired map-based oracle in lockstep.
func TestOpsMatchOracle(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomGraph(seed, 12+int(seed%3)*13)
		p := Singletons(g)
		tagOracleHandles(p)
		nodes := g.ComputeNodes()
		for step := 0; step < 120; step++ {
			var got, want *Partition
			var gotErr, wantErr error
			var op string
			switch rng.Intn(3) {
			case 0:
				op = "modify"
				u := nodes[rng.Intn(len(nodes))]
				target := rng.Intn(p.count + 1)
				got, gotErr = p.TryModifyNode(u, target)
				want, wantErr = oracleTryModifyNode(p, u, target)
			case 1:
				op = "split"
				s := rng.Intn(p.count)
				members := p.Members(s)
				if len(members) < 2 {
					continue
				}
				var a, b []int
				for _, id := range members {
					if rng.Intn(2) == 0 {
						a = append(a, id)
					} else {
						b = append(b, id)
					}
				}
				if len(a) == 0 || len(b) == 0 {
					continue
				}
				got, gotErr = p.TrySplit(s, [][]int{a, b})
				want, wantErr = oracleTrySplit(p, s, [][]int{a, b})
			default:
				op = "merge"
				if p.count < 2 {
					continue
				}
				a, b := rng.Intn(p.count), rng.Intn(p.count)
				if a == b {
					continue
				}
				got, gotErr = p.TryMerge(a, b)
				want, wantErr = oracleTryMerge(p, a, b)
			}
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("seed %d step %d %s: error disagreement: ops %v, oracle %v",
					seed, step, op, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			requireSamePartition(t, step, op, got, want)
			p = got
			tagOracleHandles(p)
		}
	}
}

// TestFromMatchesOracleNormalize pins the From pipeline (normalize from raw
// labels) against the oracle on random assignments, including rejected ones.
func TestFromMatchesOracleNormalize(t *testing.T) {
	for seed := int64(0); seed < 16; seed++ {
		rng := rand.New(rand.NewSource(seed + 100))
		g := testutil.RandomGraph(seed, 20)
		// Random (often invalid) labelings over a small label alphabet, with
		// arbitrary gaps and order.
		assign := make([]int, g.Len())
		for trial := 0; trial < 40; trial++ {
			labels := 1 + rng.Intn(6)
			for _, n := range g.Nodes() {
				if n.Kind == graph.OpInput {
					assign[n.ID] = Unassigned
				} else {
					assign[n.ID] = rng.Intn(labels) * (1 + rng.Intn(3)) // gappy labels
				}
			}
			got, gotErr := From(g, assign)

			want := &Partition{g: g, assign: append([]int(nil), assign...)}
			wantErr := oracleNormalize(want)
			if wantErr == nil {
				wantErr = want.Validate()
			}
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("seed %d trial %d: error disagreement: From %v, oracle %v",
					seed, trial, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			requireSamePartition(t, trial, "from", got, want)
		}
	}
}
