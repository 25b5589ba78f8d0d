package service

import (
	"container/list"
	"sync"
)

// lruCache is a fixed-capacity LRU of finished solve results, keyed by
// canonical instance hash plus solve-parameter fingerprint. Values are
// stored in canonical index space and translated per requester.
type lruCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recent
	items map[string]*list.Element
}

type cacheEntry struct {
	key string
	val *SolveResult
}

func newLRUCache(capacity int) *lruCache {
	if capacity < 1 {
		capacity = 1
	}
	return &lruCache{cap: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

// get returns the cached result for key and marks it recently used.
func (c *lruCache) get(key string) (*SolveResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// put stores val under key, evicting the least recently used entry when
// over capacity. The stored result must not be mutated afterwards.
func (c *lruCache) put(key string, val *SolveResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).val = val
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*cacheEntry).key)
	}
}

// remove drops key's entry, if any.
func (c *lruCache) remove(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.Remove(el)
		delete(c.items, key)
	}
}

// len reports the current entry count.
func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// hintCache is the delta-aware side table of the solution cache: a
// fixed-capacity LRU from structural hash (index names and plan shapes,
// no float parameters — see codec.StructuralHash) to the index-name
// deployment order of the last finished solve with that structure.
// A request whose parameters drifted misses the full solve key but hits
// here, and the remembered order warm-starts the re-solve.
type hintCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List
	items map[string]*list.Element
}

type hintEntry struct {
	key   string
	names []string
}

func newHintCache(capacity int) *hintCache {
	if capacity < 1 {
		capacity = 1
	}
	return &hintCache{cap: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

// get returns the remembered deployment order for a structural hash.
func (c *hintCache) get(key string) ([]string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*hintEntry).names, true
}

// put stores the latest finished order for a structural hash.
func (c *hintCache) put(key string, names []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*hintEntry).names = names
		return
	}
	c.items[key] = c.ll.PushFront(&hintEntry{key: key, names: names})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*hintEntry).key)
	}
}
