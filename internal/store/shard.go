package store

import (
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"ofmf/internal/odata"
)

// redfishRoot is the service root every Redfish resource lives under.
// Sharding strips it before routing so the top-level collections
// (Systems, Fabrics, Chassis, ...) — not the shared /redfish/v1 spine —
// are what partition the tree.
const redfishRoot = "/redfish/v1"

// maxShards bounds the shard count; beyond this the per-shard fixed cost
// (locks, maps) outweighs any contention win.
const maxShards = 64

// shard is one independent partition of the tree: its own lock, entry
// map, children index, collection caches, and NextID high-water marks.
// The trailing pad keeps two shards out of the same cache line when the
// allocator places them adjacently — the locks are the contended words.
type shard struct {
	mu  sync.RWMutex
	eng engine
	_   [64]byte
}

// ShardCount returns the number of shards the store was built with.
func (s *Store) ShardCount() int { return len(s.shards) }

// ShardOf returns the index of the shard that owns id. Routing is
// stable for a given shard count: tests and operators can use it to
// predict which lock a resource's mutations take.
func (s *Store) ShardOf(id odata.ID) int { return s.shardIndex(id) }

// ShardLen returns the number of resources stored in shard i. The
// telemetry report uses it to expose per-shard entry counts.
func (s *Store) ShardLen(i int) int {
	sh := s.shards[i]
	sh.mu.RLock()
	n := len(sh.eng.entries)
	sh.mu.RUnlock()
	return n
}

// envShards reads the OFMF_STORE_SHARDS override. It exists so the whole
// test suite can be driven at a different shard count (the CI race
// matrix sets it) without every call site growing a parameter.
func envShards() int {
	if v := os.Getenv("OFMF_STORE_SHARDS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 1
}

// shardKey extracts the routing key of an id: its first path segment,
// with the /redfish/v1 service-root prefix stripped when present. A
// collection and all of its members therefore always share a key — every
// registered collection lives at least one segment below the root — and
// so does every resource pair connected by a parent/child walk that
// matters to a single-shard operation.
func shardKey(id odata.ID) string {
	s := string(id)
	if len(s) >= len(redfishRoot) && s[:len(redfishRoot)] == redfishRoot &&
		(len(s) == len(redfishRoot) || s[len(redfishRoot)] == '/') {
		s = s[len(redfishRoot):]
	}
	if len(s) > 0 && s[0] == '/' {
		s = s[1:]
	}
	if i := strings.IndexByte(s, '/'); i >= 0 {
		s = s[:i]
	}
	return s
}

// shardIndex routes an id to its shard: FNV-1a over the routing key,
// inlined so the read hot path stays allocation-free.
func (s *Store) shardIndex(id odata.ID) int {
	if len(s.shards) == 1 {
		return 0
	}
	key := shardKey(id)
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(len(s.shards)))
}

// spansShards reports whether descendants of prefix can live on
// different shards — true only for the tree spine at or above the
// service root. Any prefix with a concrete first segment (after the
// root) pins its whole subtree to one shard.
func spansShards(prefix odata.ID) bool {
	if len(prefix) > 1 {
		switch string(prefix) {
		case "/redfish", "/redfish/", redfishRoot, redfishRoot + "/":
			return true
		}
		return false
	}
	return true // "" and "/"
}

// LockWaitHook observes the time one mutation spent waiting to acquire
// its shard's write lock — the store's headline contention number.
// shard is the shard index, or -1 for a multi-shard (all-lock)
// acquisition. Hooks must be fast and must not call back into the store.
type LockWaitHook func(shard int, wait time.Duration)

// SetLockWaitHook installs the lock-wait observer, replacing any
// previous one. Only write-lock acquisitions are measured: timing the
// read path would put a clock read on the zero-alloc GET path.
func (s *Store) SetLockWaitHook(h LockWaitHook) { s.lockWait.Store(h) }

// lockShard write-locks shard i, reporting the wait to the hook.
func (s *Store) lockShard(i int) *shard {
	sh := s.shards[i]
	if h, ok := s.lockWait.Load().(LockWaitHook); ok && h != nil {
		start := time.Now()
		sh.mu.Lock()
		h(i, time.Since(start))
		return sh
	}
	sh.mu.Lock()
	return sh
}

// lockAll write-locks every shard in ascending index order — the fixed
// global order that makes multi-shard commits deadlock-free — and
// reports the total wait to the hook as shard -1.
func (s *Store) lockAll() {
	if h, ok := s.lockWait.Load().(LockWaitHook); ok && h != nil {
		start := time.Now()
		for _, sh := range s.shards {
			sh.mu.Lock()
		}
		h(-1, time.Since(start))
		return
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
}

func (s *Store) unlockAll() {
	for _, sh := range s.shards {
		sh.mu.Unlock()
	}
}

func (s *Store) rlockAll() {
	for _, sh := range s.shards {
		sh.mu.RLock()
	}
}

func (s *Store) runlockAll() {
	for _, sh := range s.shards {
		sh.mu.RUnlock()
	}
}
