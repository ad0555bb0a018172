// Package memo is the repository's one memoization primitive: Cache[K, V]
// backs the rewrite cache (core.RewriteCache), the compile cache
// (core.CompileCache) and the benchmark cache (suite.Cache). Every hit,
// from memory or from the persistent Tier below it, must be
// byte-identical to a fresh computation, so Cache.Do owns the whole
// discipline once: singleflight with cancellable waiters, never caching a
// failed or panicked computation, the tier probe and write-back,
// byte-budgeted LRU eviction of completed entries, and one
// outcome-annotated trace span plus one count per probe, taken where the
// probe is classified. Cached values are shared and read-only.
//
// The byte budget is a Budget that any number of caches share: an engine
// builds one and hands it to all three of its caches, so its memory bound
// holds for them together and a fill in one cache evicts the least
// recently used completed entry of any of them.
package memo

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"plim/internal/diskcache"
	"plim/internal/trace"
)

// ErrPanicked marks an entry whose computing caller panicked instead of
// completing; the panic itself propagates to that caller. Waiters observe
// it on an entry that is already unindexed, so they retry (and hit the
// same panic in their own stack if it is deterministic).
var ErrPanicked = errors.New("memo: computation panicked")

// Tier is a persistent second level below the in-memory cache. Load
// reports diskcache.ProbeHit with a value byte-identical to what the
// compute function would produce; any other outcome is a miss. Store
// errors are counted, not returned: a failed store only costs a later
// process a recomputation. A store the tier skips returns
// diskcache.ErrNotStorable and is not counted at all.
type Tier[K comparable, V any] interface {
	Load(K) (V, diskcache.ProbeOutcome)
	Store(K, V) error
}

// Budget bounds the summed size of the completed entries of every cache
// built on it. It holds the limit, one recency list over the entries of
// all those caches and one mutex, which also guards each cache's index.
// The limit is in the unit of the caches' size functions, estimated bytes
// for every caller.
type Budget struct {
	mu sync.Mutex
	// head is the most recently used entry of any cache, tail the least.
	// total sums the costs of completed entries against limit (≤ 0 =
	// unbounded).
	head, tail   *link
	limit, total int
}

// NewBudget returns a budget of limit bytes; limit ≤ 0 means unbounded.
func NewBudget(limit int) *Budget { return &Budget{limit: limit} }

// link is an entry's place on its budget's recency list.
type link struct {
	prev, next *link
	// cost is size(v), charged once the computation succeeds; only then is
	// the entry evictable, so an in-flight computation is never evicted.
	cost  int
	ready bool
	owner dropper // the entry itself, so eviction can unindex it
}

// dropper is an entry as its budget sees it: eviction removes it from its
// own cache's index, whatever the cache's key and value types.
type dropper interface{ drop() }

// Cache memoizes compute functions by key. The zero value is not usable;
// call New.
type Cache[K comparable, V any] struct {
	b       *Budget
	entries map[K]*entry[K, V] // guarded by b.mu; waiters hold the entry, so eviction only unindexes

	n counters

	tier  Tier[K, V] // nil: memory only
	size  func(V) int
	probe string
	attr  func(K) (string, string)
}

type entry[K comparable, V any] struct {
	link
	c   *Cache[K, V]
	key K
	// done is made by the first waiter on an in-flight entry, under b.mu,
	// and closed when the computation finishes; an entry nobody waits on
	// never allocates one. A completed entry is ready and needs no wait.
	done chan struct{}
	v    V
	err  error
}

// drop unindexes e from its cache; b.mu is held.
func (e *entry[K, V]) drop() { delete(e.c.entries, e.key) }

// Counters is a snapshot of a cache's probe accounting. Hits and Misses
// classify every probe against the memory tier; a probe that attaches to
// an in-flight computation is a hit. Each miss then probes the Tier, if
// any: TierHits and TierMisses classify those probes, and TierVerifyMisses
// is the subset of TierMisses rejected by re-verification alone. Stores
// and StoreErrors count the write-backs of computed values.
type Counters struct {
	Hits, Misses                           uint64
	TierHits, TierMisses, TierVerifyMisses uint64
	Stores, StoreErrors                    uint64
}

// counters is the live form of Counters.
type counters struct {
	hits, misses, tierHits, tierMisses, tierVerifyMisses, stores, storeErrors atomic.Uint64
}

// New returns a cache charging each completed entry size(v) against b,
// which evicts least-recently-used completed entries of every cache it
// bounds once their summed charge exceeds its limit; a nil b is a private
// unbounded budget. probe names the cache's trace span; attr, when
// non-nil, labels a traced span with one key attribute and is only called
// when the span is recorded. tier, when non-nil, is the persistent second
// level every memory miss probes.
func New[K comparable, V any](b *Budget, size func(V) int, probe string, attr func(K) (string, string), tier Tier[K, V]) *Cache[K, V] {
	if b == nil {
		b = NewBudget(0)
	}
	return &Cache[K, V]{b: b, entries: make(map[K]*entry[K, V]), size: size, probe: probe, attr: attr, tier: tier}
}

// Len reports the number of indexed entries, in-flight ones included.
func (c *Cache[K, V]) Len() int {
	c.b.mu.Lock()
	defer c.b.mu.Unlock()
	return len(c.entries)
}

// Counters returns a snapshot of the cache's probe accounting.
func (c *Cache[K, V]) Counters() Counters {
	return Counters{
		Hits: c.n.hits.Load(), Misses: c.n.misses.Load(),
		TierHits: c.n.tierHits.Load(), TierMisses: c.n.tierMisses.Load(), TierVerifyMisses: c.n.tierVerifyMisses.Load(),
		Stores: c.n.stores.Load(), StoreErrors: c.n.storeErrors.Load(),
	}
}

// Do returns the value cached for key, computing it with compute on a
// miss. A cancelled ctx fails up front, before any cached value is
// served, and releases a waiter early with ctx.Err(); the computation it
// waited on still completes and is cached for the next caller.
func (c *Cache[K, V]) Do(ctx context.Context, key K, compute func() (V, error)) (V, error) {
	var zero V
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	// The span covers the lookup (and, for a waiter, the wait), never the
	// computation: that time belongs to the enclosing task span. Zero
	// Handle (free no-ops) when ctx carries no trace.
	sp := trace.StartNoCtx(ctx, "cache", c.probe)
	if sp.Traced() && c.attr != nil {
		sp.Attr(c.attr(key))
	}
	c.b.mu.Lock()
	e := c.get(key)
	if e != nil {
		c.n.hits.Add(1)
	} else {
		c.n.misses.Add(1)
	}
	for {
		if e == nil {
			e = &entry[K, V]{c: c, key: key}
			e.owner = e
			c.entries[key] = e
			c.b.pushFront(&e.link)
			c.b.mu.Unlock()
			c.fill(e, sp, compute)
			if e.err != nil {
				return zero, e.err
			}
			return e.v, nil
		}
		if e.ready {
			c.b.mu.Unlock()
			sp.Attr("outcome", "memory-hit")
			sp.End()
			return e.v, nil
		}
		if e.done == nil {
			e.done = make(chan struct{})
		}
		c.b.mu.Unlock()
		select {
		case <-e.done:
			if e.err == nil {
				sp.Attr("outcome", "memory-hit")
				sp.End()
				return e.v, nil
			}
			// The computing caller failed and its entry is gone: either
			// this caller computes (and reports its own error) or it waits
			// on a newer computation.
		case <-ctx.Done():
			sp.End()
			return zero, ctx.Err()
		}
		c.b.mu.Lock()
		e = c.get(key)
	}
}

// fill resolves a fresh entry from the tier or compute and publishes it.
func (c *Cache[K, V]) fill(e *entry[K, V], sp trace.Handle, compute func() (V, error)) {
	// Publish via defer so a panicking computation still unindexes the
	// entry and releases its waiters; otherwise every later caller of the
	// key would block on an entry nobody is computing. ErrPanicked stands
	// until the tier or compute returns.
	e.err = ErrPanicked
	defer func() {
		c.b.mu.Lock()
		if e.err != nil {
			c.b.unlink(&e.link)
			e.drop()
		} else {
			c.b.charge(&e.link, c.size(e.v))
		}
		if e.done != nil {
			close(e.done)
		}
		c.b.mu.Unlock()
	}()
	outcome := "compute"
	if c.tier != nil {
		v, out := c.tier.Load(e.key)
		switch out {
		case diskcache.ProbeHit:
			c.n.tierHits.Add(1)
			e.v, e.err = v, nil
			sp.Attr("outcome", "disk-hit")
			sp.End()
			return
		case diskcache.ProbeVerifyMiss:
			c.n.tierVerifyMisses.Add(1)
			outcome = "verify-miss"
		}
		c.n.tierMisses.Add(1)
	}
	sp.Attr("outcome", outcome)
	sp.End()
	e.v, e.err = compute()
	if e.err == nil && c.tier != nil {
		switch err := c.tier.Store(e.key, e.v); {
		case err == nil:
			c.n.stores.Add(1)
		case !errors.Is(err, diskcache.ErrNotStorable):
			c.n.storeErrors.Add(1)
		}
	}
}

// get returns the entry indexed for key, marking it most recently used,
// or nil. b.mu is held.
func (c *Cache[K, V]) get(key K) *entry[K, V] {
	e := c.entries[key]
	if e != nil {
		c.b.unlink(&e.link)
		c.b.pushFront(&e.link)
	}
	return e
}

// charge marks l completed at cost and evicts completed entries, least
// recently used first, until the charged total fits the limit or only
// in-flight entries remain. An entry costlier than the whole budget
// evicts itself as soon as it completes: the budget is a bound, not a
// promise of residency. b.mu is held.
func (b *Budget) charge(l *link, cost int) {
	l.ready, l.cost = true, cost
	b.total += cost
	if b.limit <= 0 {
		return
	}
	for v := b.tail; v != nil && b.total > b.limit; {
		victim := v
		v = v.prev
		if victim.ready {
			b.unlink(victim)
			b.total -= victim.cost
			victim.owner.drop()
		}
	}
}

func (b *Budget) pushFront(l *link) {
	l.prev, l.next = nil, b.head
	if b.head != nil {
		b.head.prev = l
	}
	b.head = l
	if b.tail == nil {
		b.tail = l
	}
}

func (b *Budget) unlink(l *link) {
	if l.prev != nil {
		l.prev.next = l.next
	} else {
		b.head = l.next
	}
	if l.next != nil {
		l.next.prev = l.prev
	} else {
		b.tail = l.prev
	}
	l.prev, l.next = nil, nil
}
