package serve

import (
	"fmt"
	"time"

	"repro/internal/icilk"
)

// The serve layer's shared structures follow the access-pattern
// classification of "State access patterns in embarrassingly parallel
// computations": the session store and response cache are caches —
// key-addressed, read-mostly — so they are key-hashed into N shards
// (N ≈ workers, power-of-two mask), each behind its own ceilinged
// RWMutex; two requests touching different keys almost never meet on a
// lock, and lookups within a shard share it as readers, each paying one
// CAS on the lock's state word. The admission table is an
// accumulator — write-hot, read only by /stats — so it is striped by
// worker id and merged at read time. Every shard lock's ceilings come
// from the same fail-fast derivation (derivedCeiling) the unsharded
// stores used: sharding changes the layout, not the priority story.

// fnv32a is the key→shard hash (FNV-1a, inlined to avoid a hash.Hash32
// allocation per request).
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// shardCount rounds workers up to a power of two, capped at 32 — one
// shard per worker makes same-instant collisions rare without letting a
// huge worker count balloon per-store memory.
func shardCount(workers int) int {
	n := 1
	for n < workers && n < 32 {
		n <<= 1
	}
	return n
}

// sessionShard is one key-hash shard of the session store.
type sessionShard struct {
	mu *icilk.RWMutex
	m  map[string]*session
}

// sessionStore is the sharded session table.
type sessionStore struct {
	shards []sessionShard
	mask   uint32
	capPer int // per-shard session cap (maxSessions / len(shards))
}

func newSessionStore(rt *icilk.Runtime, nshards int) *sessionStore {
	ceil := derivedCeiling("serve.sessions")
	capPer := maxSessions / nshards
	if capPer < 1 {
		capPer = 1
	}
	st := &sessionStore{shards: make([]sessionShard, nshards), mask: uint32(nshards - 1), capPer: capPer}
	for i := range st.shards {
		st.shards[i] = sessionShard{
			mu: icilk.NewRWMutex(rt, ceil, ceil, fmt.Sprintf("serve.sessions/%d", i)),
			m:  map[string]*session{},
		}
	}
	return st
}

// track updates (or creates) the session for key; at the shard's cap,
// inserting evicts the shard's least-recently-seen session.
func (st *sessionStore) track(c *icilk.Ctx, key, path string) {
	sh := &st.shards[fnv32a(key)&st.mask]
	sh.mu.Lock(c)
	sess := sh.m[key]
	if sess == nil {
		if len(sh.m) >= st.capPer {
			var oldKey string
			var oldSeen time.Time
			for k, v := range sh.m {
				if oldKey == "" || v.lastSeen.Before(oldSeen) {
					oldKey, oldSeen = k, v.lastSeen
				}
			}
			delete(sh.m, oldKey)
		}
		sess = &session{}
		sh.m[key] = sess
	}
	sess.requests++
	sess.lastPath = path
	sess.lastSeen = time.Now()
	sh.mu.Unlock(c)
}

// counts reports tracked sessions and their total request count, merged
// shard by shard under each shard's read lock. The merge is not one
// atomic snapshot across shards — the stats page's contract, not a
// linearizable read.
func (st *sessionStore) counts(c *icilk.Ctx) (n int, reqs int64) {
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.RLock(c)
		n += len(sh.m)
		for _, sess := range sh.m {
			reqs += sess.requests
		}
		sh.mu.RUnlock(c)
	}
	return n, reqs
}

// rcacheShard is one key-hash shard of the response cache.
type rcacheShard struct {
	mu *icilk.RWMutex
	m  map[string]string
}

// responseCache is the sharded whole-body response cache.
type responseCache struct {
	shards []rcacheShard
	mask   uint32
	capPer int // per-shard entry cap (maxResponseCache / len(shards))
}

func newResponseCache(rt *icilk.Runtime, nshards int) *responseCache {
	ceil := derivedCeiling("serve.rcache")
	capPer := maxResponseCache / nshards
	if capPer < 1 {
		capPer = 1
	}
	rc := &responseCache{shards: make([]rcacheShard, nshards), mask: uint32(nshards - 1), capPer: capPer}
	for i := range rc.shards {
		rc.shards[i] = rcacheShard{
			mu: icilk.NewRWMutex(rt, ceil, ceil, fmt.Sprintf("serve.rcache/%d", i)),
			m:  map[string]string{},
		}
	}
	return rc
}

// get consults the key's shard under its read lock.
func (rc *responseCache) get(c *icilk.Ctx, key string) (string, bool) {
	sh := &rc.shards[fnv32a(key)&rc.mask]
	sh.mu.RLock(c)
	body, ok := sh.m[key]
	sh.mu.RUnlock(c)
	return body, ok
}

// put fills the key's shard; on overflow the shard (not the whole
// cache) is dropped.
func (rc *responseCache) put(c *icilk.Ctx, key, body string) {
	sh := &rc.shards[fnv32a(key)&rc.mask]
	sh.mu.Lock(c)
	if len(sh.m) >= rc.capPer {
		sh.m = map[string]string{}
	}
	sh.m[key] = body
	sh.mu.Unlock(c)
}

// entries sums the shard sizes under their read locks.
func (rc *responseCache) entries(c *icilk.Ctx) int {
	n := 0
	for i := range rc.shards {
		sh := &rc.shards[i]
		sh.mu.RLock(c)
		n += len(sh.m)
		sh.mu.RUnlock(c)
	}
	return n
}

// admitShard is one worker stripe of the admission table.
type admitShard struct {
	mu *icilk.RWMutex
	m  map[string]int64
}

// admitTable is a worker-striped per-class accumulator: tasks on
// different workers bump different stripes; /stats merges them. The
// admission, shed, and deadline-miss counters are all instances, named
// by their storeAccessors entry (which supplies the lock ceilings).
type admitTable struct {
	shards []admitShard
	mask   uint32
}

func newAdmitTable(rt *icilk.Runtime, nshards int, store string) *admitTable {
	ceil := derivedCeiling(store)
	at := &admitTable{shards: make([]admitShard, nshards), mask: uint32(nshards - 1)}
	for i := range at.shards {
		at.shards[i] = admitShard{
			mu: icilk.NewRWMutex(rt, ceil, ceil, fmt.Sprintf("%s/%d", store, i)),
			m:  map[string]int64{},
		}
	}
	return at
}

// add counts one admission on the calling worker's stripe.
func (at *admitTable) add(c *icilk.Ctx, class string) {
	sh := &at.shards[uint32(c.WorkerID())&at.mask]
	sh.mu.Lock(c)
	sh.m[class]++
	sh.mu.Unlock(c)
}

// merged sums the stripes into one per-class map.
func (at *admitTable) merged(c *icilk.Ctx) map[string]int64 {
	out := map[string]int64{}
	for i := range at.shards {
		sh := &at.shards[i]
		sh.mu.RLock(c)
		for k, v := range sh.m {
			out[k] += v
		}
		sh.mu.RUnlock(c)
	}
	return out
}
