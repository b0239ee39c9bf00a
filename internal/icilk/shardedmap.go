package icilk

import "fmt"

// ShardedMap is a ceilinged string-keyed map for key-addressed,
// read-mostly shared state — caches and session tables, in the
// classification of "State access patterns in embarrassingly parallel
// computations". Keys hash (FNV-1a) into stripes(workers) shards, each
// its own map behind its own RWMutex carrying the map's per-mode
// ceilings and named name/i, so a ceiling violation or lock-order
// report attributes to the shard. Two tasks touching different keys
// almost never meet on a lock, and lookups within a shard share it as
// readers.
//
// Update and Range hand the callback the shard's map itself, so a
// caller's policy at a size cap (evict one entry, drop the shard) stays
// shard-local; Shards lets it split a whole-map cap per shard. The
// callback runs under the shard lock: it must not retain the map, and
// it must not take the same shard's lock again (RWMutex is not
// reentrant). All methods need task context, like RWMutex.
type ShardedMap[V any] struct {
	shards []mapShard[V]
	mask   uint32
}

// mapShard is one key-hash shard of a ShardedMap.
type mapShard[V any] struct {
	mu *RWMutex
	m  map[string]V
}

// NewShardedMap creates an empty ShardedMap whose shard locks admit
// readers up to readCeil and writers up to writeCeil (readCeil ≥
// writeCeil, as for NewRWMutex).
func NewShardedMap[V any](rt *Runtime, readCeil, writeCeil Priority, name string) *ShardedMap[V] {
	n := stripes(rt.cfg.Workers)
	sm := &ShardedMap[V]{shards: make([]mapShard[V], n), mask: uint32(n - 1)}
	for i := range sm.shards {
		sm.shards[i] = mapShard[V]{
			mu: NewRWMutex(rt, readCeil, writeCeil, fmt.Sprintf("%s/%d", name, i)),
			m:  map[string]V{},
		}
	}
	return sm
}

// shard returns key's shard (FNV-1a, inlined to avoid a hash.Hash32
// allocation per access).
func (sm *ShardedMap[V]) shard(key string) *mapShard[V] {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &sm.shards[h&sm.mask]
}

// Shards returns the shard count.
func (sm *ShardedMap[V]) Shards() int { return len(sm.shards) }

// Get returns key's value under its shard's read lock.
func (sm *ShardedMap[V]) Get(c *Ctx, key string) (V, bool) {
	sh := sm.shard(key)
	sh.mu.RLock(c)
	v, ok := sh.m[key]
	sh.mu.RUnlock(c)
	return v, ok
}

// Update runs fn on key's shard map under the shard's write lock.
func (sm *ShardedMap[V]) Update(c *Ctx, key string, fn func(shard map[string]V)) {
	sh := sm.shard(key)
	sh.mu.Lock(c)
	fn(sh.m)
	sh.mu.Unlock(c)
}

// Range runs fn on every shard map in turn, each under its shard's read
// lock. The visit is per-shard consistent, not one atomic snapshot
// across shards — the contract a stats page needs, not a linearizable
// read.
func (sm *ShardedMap[V]) Range(c *Ctx, fn func(shard map[string]V)) {
	for i := range sm.shards {
		sh := &sm.shards[i]
		sh.mu.RLock(c)
		fn(sh.m)
		sh.mu.RUnlock(c)
	}
}
