// Package lru provides the least-recently-used bookkeeping of memo.Cache,
// its one consumer (which in turn backs the rewrite, benchmark and
// exec-plan caches). It is a map plus an intrusive recency list with a cost
// budget; eviction is explicit and skips entries the caller has marked
// not-yet-evictable, which is how memo.Cache protects in-flight
// computations (waiters hold the entry pointer, so evicting a completed
// entry only drops it from the index — it never invalidates a reader).
//
// The budget is expressed in the caller's cost unit — the memoization
// caches charge estimated bytes (mig.MemSize, exec.Plan.MemSize), the way
// diskcache.GC budgets the disk tier. Entries enter with cost 0 (in-flight
// computations occupy no budget and are pinned via Evictable anyway); the
// caller sets the real cost with SetCost once the value exists.
//
// The container performs no locking; callers guard every method with their
// own mutex.
package lru

// Entry is one cached key/value pair threaded on the recency list.
type Entry[K comparable, V any] struct {
	Key   K
	Value V
	// Cost is the entry's charge against the map's budget (typically
	// estimated bytes). Mutate it only through Map.SetCost so the running
	// total stays consistent.
	Cost int
	// Evictable marks entries EvictExcess may drop. Callers keep it false
	// while a computation is in flight so a budget overrun never evicts an
	// entry other goroutines are about to complete.
	Evictable bool

	prev, next *Entry[K, V]
	linked     bool
}

// Map is a budgeted LRU map. The zero value is not usable; call New.
type Map[K comparable, V any] struct {
	budget  int // ≤ 0 = unbounded
	total   int // sum of entry costs
	entries map[K]*Entry[K, V]
	// head is the most recently used entry, tail the least.
	head, tail *Entry[K, V]
}

// New returns an empty map evicting beyond a total cost of budget;
// budget ≤ 0 disables eviction.
func New[K comparable, V any](budget int) *Map[K, V] {
	return &Map[K, V]{budget: budget, entries: make(map[K]*Entry[K, V])}
}

// Budget returns the cost budget (≤ 0 = unbounded).
func (m *Map[K, V]) Budget() int { return m.budget }

// Len returns the number of entries currently indexed.
func (m *Map[K, V]) Len() int { return len(m.entries) }

// Total returns the summed cost of all indexed entries.
func (m *Map[K, V]) Total() int { return m.total }

// Get returns the entry for k and marks it most recently used.
func (m *Map[K, V]) Get(k K) (*Entry[K, V], bool) {
	e, ok := m.entries[k]
	if !ok {
		return nil, false
	}
	m.unlink(e)
	m.pushFront(e)
	return e, true
}

// Add inserts a fresh (non-evictable, cost-0) entry for k as most recently
// used and returns it. The caller must ensure k is not already present.
func (m *Map[K, V]) Add(k K, v V) *Entry[K, V] {
	e := &Entry[K, V]{Key: k, Value: v}
	m.entries[k] = e
	m.pushFront(e)
	return e
}

// SetCost re-charges an entry against the budget. Call it when the entry's
// value materializes (cost was 0 while in flight) or changes size.
func (m *Map[K, V]) SetCost(e *Entry[K, V], cost int) {
	m.total += cost - e.Cost
	e.Cost = cost
}

// Delete drops the entry for k, if any.
func (m *Map[K, V]) Delete(k K) {
	if e, ok := m.entries[k]; ok {
		m.unlink(e)
		m.total -= e.Cost
		delete(m.entries, k)
	}
}

// EvictExcess drops evictable entries, least recently used first, until the
// total cost is within budget (or only non-evictable entries remain). Each
// victim is reported to onEvict (which may be nil) after it is unindexed.
// A single entry costlier than the whole budget is itself evicted as soon
// as it becomes evictable — the budget is a bound, not a guarantee of
// residency.
func (m *Map[K, V]) EvictExcess(onEvict func(*Entry[K, V])) {
	if m.budget <= 0 {
		return
	}
	for e := m.tail; e != nil && m.total > m.budget; {
		victim := e
		e = e.prev
		if !victim.Evictable {
			continue
		}
		m.unlink(victim)
		m.total -= victim.Cost
		delete(m.entries, victim.Key)
		if onEvict != nil {
			onEvict(victim)
		}
	}
}

func (m *Map[K, V]) pushFront(e *Entry[K, V]) {
	e.prev = nil
	e.next = m.head
	if m.head != nil {
		m.head.prev = e
	}
	m.head = e
	if m.tail == nil {
		m.tail = e
	}
	e.linked = true
}

func (m *Map[K, V]) unlink(e *Entry[K, V]) {
	if !e.linked {
		return
	}
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		m.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		m.tail = e.prev
	}
	e.prev, e.next = nil, nil
	e.linked = false
}
