package core

import (
	"container/list"
	"encoding/binary"
	"sync"
	"sync/atomic"
)

// blockCache is the compressed block cache of §3.4: an LRU map from
// (gate signature, error level, compressed input block(s)) to the
// compressed output block(s). When the quantum state carries
// redundancy — many blocks sharing the same compressed form — a hit
// replaces the decompress/compute/compress round trip with two copies.
// If the state has no redundancy the cache never hits, so it disables
// itself after a probation window, avoiding the paper's cache-miss
// penalty.
//
// The same cache deduplicates codec work across the variants of a
// batched run: a variant whose block has not diverged from an earlier
// variant's looks up the same key (cacheLines sizes the cache so the
// in-flight blocks of every variant fit).
//
// mu makes the cache safe for the rank's worker pool: workers hit it
// concurrently during a fan-out, and even get mutates the LRU list.
// disabled is atomic so the post-shutoff fast path — the common case on
// redundancy-free states — never touches the lock (or even builds a
// key: callers check enabled() first).
type blockCache struct {
	mu       sync.Mutex
	cap      int
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	lookups  int64
	hits     int64
	disabled atomic.Bool
	// probation is the number of lookups after which a hitless cache
	// shuts off.
	probation int64
}

type cacheEntry struct {
	key  string
	out1 []byte
	out2 []byte // nil for single-block operations
}

func newBlockCache(lines int) *blockCache {
	if lines <= 0 {
		return nil
	}
	return &blockCache{
		cap:       lines,
		ll:        list.New(),
		items:     make(map[string]*list.Element, lines),
		probation: 4 * int64(lines),
	}
}

// cacheLines sizes a rank's block cache for a run of k lockstep variants
// on nw workers: the configured lines, plus — when k > 1 — one line per
// variant for every worker's in-flight block, so variants whose blocks
// have not diverged share codec work even with the configured cache
// off. A solo run (k == 1) gets exactly the configured cache.
func cacheLines(configured, k, nw int) int {
	if k == 1 {
		return configured
	}
	return configured + k*nw
}

// capacity returns the cache's line count (0 for the nil, disabled
// cache).
func (c *blockCache) capacity() int {
	if c == nil {
		return 0
	}
	return c.cap
}

// enabled reports whether the cache is worth consulting; callers skip
// key construction entirely when it is not.
func (c *blockCache) enabled() bool {
	return c != nil && !c.disabled.Load()
}

// cacheKey builds the lookup key from the gate (or sweep) signature,
// the escalation level, and the raw compressed input blocks (cb2 nil
// for single-block ops). Every variable-length field is length-prefixed:
// signatures and compressed blobs both legitimately contain zero bytes,
// so joining them with separator bytes would let distinct
// (sig, cb1, cb2) triples collide — and a colliding get would silently
// swap in the wrong compressed output block. The level is encoded in
// full, not truncated to one byte.
func cacheKey(sig string, level int, cb1, cb2 []byte) string {
	b := make([]byte, 0, len(sig)+len(cb1)+len(cb2)+4*binary.MaxVarintLen64)
	b = binary.AppendUvarint(b, uint64(len(sig)))
	b = append(b, sig...)
	b = binary.AppendUvarint(b, uint64(level))
	b = binary.AppendUvarint(b, uint64(len(cb1)))
	b = append(b, cb1...)
	b = binary.AppendUvarint(b, uint64(len(cb2)))
	b = append(b, cb2...)
	return string(b)
}

// get returns the cached outputs for key, if present.
func (c *blockCache) get(key string) (out1, out2 []byte, ok bool) {
	if !c.enabled() {
		return nil, nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.disabled.Load() {
		return nil, nil, false
	}
	c.lookups++
	if el, hit := c.items[key]; hit {
		c.hits++
		c.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		return e.out1, e.out2, true
	}
	if c.hits == 0 && c.lookups >= c.probation {
		// §3.4: no redundancy in the state — stop paying the miss
		// penalty.
		c.disabled.Store(true)
		c.ll.Init()
		c.items = nil
	}
	return nil, nil, false
}

// put stores the outputs; inputs are copied so later mutation of the
// block store cannot corrupt the cache.
func (c *blockCache) put(key string, out1, out2 []byte) {
	if !c.enabled() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.disabled.Load() {
		return
	}
	if el, hit := c.items[key]; hit {
		c.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		e.out1 = append([]byte(nil), out1...)
		e.out2 = append([]byte(nil), out2...)
		return
	}
	for c.ll.Len() >= c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*cacheEntry).key)
	}
	e := &cacheEntry{key: key, out1: append([]byte(nil), out1...)}
	if out2 != nil {
		e.out2 = append([]byte(nil), out2...)
	}
	c.items[key] = c.ll.PushFront(e)
}
