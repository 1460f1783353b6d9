package eval

import (
	"fmt"
	"math"

	"cocco/internal/partition"
)

// Cost-cache snapshot/load: the open-addressed shards already keep their
// state in exactly the flat layout that serializes as byte slices — an
// append-only entry array plus a key arena, with the slot table rebuildable
// from the entries — so exporting the cache is a per-shard copy and loading
// one is a sequence of ordinary keep-first inserts. A loaded entry is
// indistinguishable from one the evaluator computed itself: *SubgraphCost
// pointers stay stable forever, delta handles keep working, and a search
// started from a snapshot is bit-identical to the same search run cold
// (entries change only WHEN costs are computed, never what they are).
//
// Snapshots are keyed by CacheFingerprint — (key-format version, graph
// name, tiling config, core geometry) — so a load against the wrong model
// or configuration fails loudly instead of silently serving foreign costs.
// The fingerprint deliberately excludes everything subgraph costing does
// not depend on (memory capacities, buffer kind, core count, batch): one
// snapshot warm-starts every sibling config of a DSE capacity sweep.
// Pre-geometry snapshots, whose fingerprints pinned the full platform, are
// rejected one layer down by the serialize codec's wire-format version
// before any fingerprint comparison happens.

// cacheKeyFormat versions the canonical member-key encoding the cache is
// keyed by (partition.MemberKey: 4-byte big-endian ids, ascending). Any
// change to that encoding must bump this, invalidating every snapshot
// written under the old format.
const cacheKeyFormat = 1

// CacheRecord is one subgraph cost in a CacheSnapshot: the key window into
// the snapshot arena plus every numeric field of the SubgraphCost. Members
// are not stored — they are exactly the decoded key bytes.
type CacheRecord struct {
	Off    uint32
	KeyLen uint32

	WeightBytes    int64
	InBytes        int64
	OutBytes       int64
	ActFootprint   int64
	MACs           int64
	ComputeCycles  int64
	GLBAccessBytes int64
}

// CacheSnapshot is the flat, serializable export of an evaluator's cost
// cache: one contiguous key arena and one record per cached subgraph.
// Entries whose tiling derivation failed (Err != nil) are not exported —
// recomputing them on demand reproduces the identical error, so omitting
// them cannot change results.
type CacheSnapshot struct {
	// Fingerprint identifies the (graph, tiling, core geometry, key format)
	// the costs are valid for; LoadCache refuses anything else.
	Fingerprint string
	Entries     []CacheRecord
	Arena       []byte
}

// CacheFingerprint identifies the configuration the shared cost cache's
// entries are valid for. Two evaluators share a fingerprint exactly when
// they were built for the same graph name, tiling config, and core geometry
// (hw.Core) — the only inputs subgraph costing depends on — under the same
// key-format version. Sibling DSE configs differing in memory capacities,
// buffer kind, core count, or batch share both the in-memory cache and its
// snapshots; a different core geometry is a different fingerprint.
func (e *Evaluator) CacheFingerprint() string {
	return fmt.Sprintf("keyfmt=%d graph=%q tiling=%s core=%+v",
		cacheKeyFormat, e.ctx.g.Name, e.ctx.tcfg, e.platform.Core)
}

// ExportCache snapshots every error-free cached subgraph cost in the SHARED
// cost cache — including entries computed by sibling evaluators of the same
// core geometry, so one export captures a whole DSE geometry group's warm
// state. It locks one shard at a time, so it is safe to call while other
// goroutines use the cache; entries inserted after their shard was visited
// are simply not in the snapshot (each entry is immutable once inserted, so
// every exported record is complete and correct).
func (e *Evaluator) ExportCache() (*CacheSnapshot, error) {
	snap := &CacheSnapshot{Fingerprint: e.CacheFingerprint()}
	for i := range e.cache.shards {
		s := &e.cache.shards[i]
		s.mu.Lock()
		for j := range s.entries {
			en := &s.entries[j]
			if en.c.Err != nil {
				continue
			}
			off := len(snap.Arena)
			if int64(off)+int64(en.klen) > math.MaxUint32 {
				s.mu.Unlock()
				return nil, fmt.Errorf("eval: cache snapshot arena exceeds the 4 GiB uint32 offset range")
			}
			snap.Arena = append(snap.Arena, s.arena[en.off:en.off+en.klen]...)
			c := en.c
			snap.Entries = append(snap.Entries, CacheRecord{
				Off:            uint32(off),
				KeyLen:         en.klen,
				WeightBytes:    c.WeightBytes,
				InBytes:        c.InBytes,
				OutBytes:       c.OutBytes,
				ActFootprint:   c.ActFootprint,
				MACs:           c.MACs,
				ComputeCycles:  c.ComputeCycles,
				GLBAccessBytes: c.GLBAccessBytes,
			})
		}
		s.mu.Unlock()
	}
	return snap, nil
}

// LoadCache inserts every snapshot record the SHARED cache does not already
// hold, returning the number added — sibling evaluators of the same core
// geometry see the loaded entries immediately. Loads are keep-first: a key
// already present keeps its existing *SubgraphCost (pointer stability for
// delta handles), and concurrent Subgraph callers racing a load behave
// exactly as they do racing each other. Because of that idempotence, loading
// the same snapshot once per sibling config is harmless — later loads add 0.
// The snapshot must carry this evaluator's fingerprint;
// records with malformed keys (out-of-range or unsorted member ids) reject
// the whole load — a fingerprint-matched snapshot can only contain them if
// the file was corrupted in a way that defeated the codec's checksum.
func (e *Evaluator) LoadCache(snap *CacheSnapshot) (added int, err error) {
	if want := e.CacheFingerprint(); snap.Fingerprint != want {
		return 0, fmt.Errorf("eval: cache snapshot fingerprint mismatch:\n  have %s\n  want %s", snap.Fingerprint, want)
	}
	n := e.ctx.g.Len()
	for i := range snap.Entries {
		r := &snap.Entries[i]
		end := int64(r.Off) + int64(r.KeyLen)
		if r.KeyLen == 0 || r.KeyLen%4 != 0 || end > int64(len(snap.Arena)) {
			return added, fmt.Errorf("eval: cache snapshot entry %d: key window [%d:%d) invalid for %d-byte arena", i, r.Off, end, len(snap.Arena))
		}
		key := snap.Arena[r.Off:end]
		members := partition.AppendKeyMembers(make([]int, 0, r.KeyLen/4), key)
		for j, id := range members {
			if id >= n || (j > 0 && id <= members[j-1]) {
				return added, fmt.Errorf("eval: cache snapshot entry %d: member ids %v not ascending within graph of %d nodes", i, members, n)
			}
		}
		c := &SubgraphCost{
			Members:        members,
			WeightBytes:    r.WeightBytes,
			InBytes:        r.InBytes,
			OutBytes:       r.OutBytes,
			ActFootprint:   r.ActFootprint,
			MACs:           r.MACs,
			ComputeCycles:  r.ComputeCycles,
			GLBAccessBytes: r.GLBAccessBytes,
			cache:          e.cache,
		}
		h := hashKey(key)
		s := &e.cache.shards[h>>(64-shardBits)]
		s.mu.Lock()
		if s.lookup(h, key) == nil {
			s.insert(h, key, c)
			added++
		}
		s.mu.Unlock()
	}
	return added, nil
}
