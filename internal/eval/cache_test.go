package eval

import (
	"bytes"
	"strconv"
	"sync"
	"testing"

	"cocco/internal/partition"
)

func TestMemberKeyDistinct(t *testing.T) {
	// Ids that collided under the old 3-byte packing (differ only above
	// bit 23) must map to distinct keys now.
	a := partition.AppendMemberKey(nil, []int{1 << 24})
	b := partition.AppendMemberKey(nil, []int{0})
	if bytes.Equal(a, b) {
		t.Error("keys collide across the 2^24 boundary")
	}
	if bytes.Equal(partition.AppendMemberKey(nil, []int{1, 2}), partition.AppendMemberKey(nil, []int{1, 3})) {
		t.Error("distinct member sets share a key")
	}
}

func TestMemberKeyGuard(t *testing.T) {
	mustPanic := func(name string, ids []int) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: memberKey did not panic", name)
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

func TestCacheShardingConcurrent(t *testing.T) {
	g, ids := toy(t)
	ev := testEvaluator(t, g)
	subs := [][]int{
		{ids[1]}, {ids[2]}, {ids[3]},
		{ids[1], ids[2]}, {ids[2], ids[3]}, {ids[1], ids[2], ids[3]},
	}
	const goroutines = 8
	const rounds = 50
	results := make([][]*SubgraphCost, goroutines)
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, s := range subs {
					results[w] = append(results[w], ev.Subgraph(s))
				}
			}
		}(w)
	}
	wg.Wait()
	// Every goroutine must observe identical cost values for each subgraph.
	for w := 1; w < goroutines; w++ {
		for i := range results[0] {
			if results[w][i].EMABytes() != results[0][i].EMABytes() {
				t.Fatalf("goroutine %d saw a different cost for lookup %d", w, i)
			}
		}
	}
	hits, calls := ev.CacheStats()
	if want := int64(goroutines * rounds * len(subs)); calls != want {
		t.Errorf("calls = %d, want %d", calls, want)
	}
	// At most one cold compute per (goroutine, subgraph) pair can race past
	// the lookup; everything else must hit.
	if minHits := int64(goroutines*rounds*len(subs) - goroutines*len(subs)); hits < minHits {
		t.Errorf("hits = %d, want >= %d", hits, minHits)
	}
}
