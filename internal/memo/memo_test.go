package memo

import (
	"context"
	"errors"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"plim/internal/diskcache"
	"plim/internal/trace"
)

// fakeTier is an in-memory Tier reporting a fixed outcome for every key
// and failing every store with storeErr.
type fakeTier struct {
	out      diskcache.ProbeOutcome
	val      int
	storeErr error
	stored   []int
}

func (f *fakeTier) Load(string) (int, diskcache.ProbeOutcome) {
	if f.out == diskcache.ProbeHit {
		return f.val, f.out
	}
	return 0, f.out
}

func (f *fakeTier) Store(_ string, v int) error {
	f.stored = append(f.stored, v)
	return f.storeErr
}

func newIntCache(tier Tier[string, int]) *Cache[string, int] {
	return New(nil, func(int) int { return 8 }, "test-probe",
		func(k string) (string, string) { return "key", k }, tier)
}

// probeSpan returns the single cache span recorded in tr and its outcome.
func probeSpan(t *testing.T, tr *trace.Trace) (key, outcome string) {
	t.Helper()
	var n int
	for _, sp := range tr.Spans() {
		if sp.Kind != "cache" || sp.Name != "test-probe" {
			continue
		}
		n++
		if sp.Dur < 0 {
			t.Fatal("probe span left open")
		}
		for _, a := range sp.Attrs {
			switch a.Key {
			case "key":
				key = a.Value
			case "outcome":
				outcome = a.Value
			}
		}
	}
	if n != 1 {
		t.Fatalf("recorded %d probe spans, want 1", n)
	}
	return key, outcome
}

var errBoom = errors.New("boom")

// TestDoTierOutcomes drives one probe per case through a fake tier and
// checks the span outcome, the counters, the value served, when the tier
// is written and what the next probe of the key sees: a memory hit after
// a success, a fresh computation after a failure.
func TestDoTierOutcomes(t *testing.T) {
	cases := []struct {
		name         string
		tier         *fakeTier // nil = no tier installed
		compute      func() (int, error)
		wantOutcome  string
		wantCounters Counters
		wantVal      int
		wantErr      error
		wantPanic    bool
		wantStored   []int
		wantCached   bool
	}{
		{name: "no tier", compute: func() (int, error) { return 42, nil },
			wantOutcome: "compute", wantCounters: Counters{Misses: 1}, wantVal: 42, wantCached: true},
		{name: "disk hit", tier: &fakeTier{out: diskcache.ProbeHit, val: 7},
			compute:     func() (int, error) { panic("disk hit must not compute") },
			wantOutcome: "disk-hit", wantCounters: Counters{Misses: 1, TierHits: 1}, wantVal: 7, wantCached: true},
		{name: "disk miss", tier: &fakeTier{out: diskcache.ProbeMiss},
			compute:     func() (int, error) { return 42, nil },
			wantOutcome: "compute", wantCounters: Counters{Misses: 1, TierMisses: 1, Stores: 1},
			wantVal: 42, wantStored: []int{42}, wantCached: true},
		{name: "verify miss", tier: &fakeTier{out: diskcache.ProbeVerifyMiss},
			compute:     func() (int, error) { return 42, nil },
			wantOutcome: "verify-miss", wantCounters: Counters{Misses: 1, TierMisses: 1, TierVerifyMisses: 1, Stores: 1},
			wantVal: 42, wantStored: []int{42}, wantCached: true},
		{name: "store error", tier: &fakeTier{out: diskcache.ProbeMiss, storeErr: errBoom},
			compute:     func() (int, error) { return 42, nil },
			wantOutcome: "compute", wantCounters: Counters{Misses: 1, TierMisses: 1, StoreErrors: 1},
			wantVal: 42, wantStored: []int{42}, wantCached: true},
		{name: "not storable", tier: &fakeTier{out: diskcache.ProbeMiss, storeErr: diskcache.ErrNotStorable},
			compute:     func() (int, error) { return 42, nil },
			wantOutcome: "compute", wantCounters: Counters{Misses: 1, TierMisses: 1},
			wantVal: 42, wantStored: []int{42}, wantCached: true},
		{name: "compute error", tier: &fakeTier{out: diskcache.ProbeMiss},
			compute:     func() (int, error) { return 42, errBoom },
			wantOutcome: "compute", wantCounters: Counters{Misses: 1, TierMisses: 1}, wantErr: errBoom},
		{name: "compute panic", tier: &fakeTier{out: diskcache.ProbeMiss},
			compute:     func() (int, error) { panic("compute failed") },
			wantOutcome: "compute", wantCounters: Counters{Misses: 1, TierMisses: 1}, wantPanic: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var tier Tier[string, int]
			if tc.tier != nil {
				tier = Tier[string, int]{Load: tc.tier.Load, Store: tc.tier.Store}
			}
			c := newIntCache(tier)
			tr := trace.New()
			ctx := trace.NewContext(context.Background(), tr)
			var (
				v        int
				err      error
				panicked bool
			)
			func() {
				defer func() { panicked = recover() != nil }()
				v, err = c.Do(ctx, "k", tc.compute)
			}()
			if panicked != tc.wantPanic {
				t.Fatalf("panicked = %v, want %v", panicked, tc.wantPanic)
			}
			if !tc.wantPanic && (v != tc.wantVal || !errors.Is(err, tc.wantErr)) {
				t.Fatalf("Do = (%d, %v), want (%d, %v)", v, err, tc.wantVal, tc.wantErr)
			}
			if key, outcome := probeSpan(t, tr); key != "k" || outcome != tc.wantOutcome {
				t.Fatalf("span key=%q outcome=%q, want k / %s", key, outcome, tc.wantOutcome)
			}
			if tc.tier != nil && !slices.Equal(tc.tier.stored, tc.wantStored) {
				t.Fatalf("tier stores %v, want %v", tc.tier.stored, tc.wantStored)
			}
			if got := c.Counters(); got != tc.wantCounters {
				t.Fatalf("counters %+v, want %+v", got, tc.wantCounters)
			}

			wantLen := 0
			if tc.wantCached {
				wantLen = 1
			}
			if got := c.Len(); got != wantLen {
				t.Fatalf("Len = %d after the first probe, want %d", got, wantLen)
			}
			tr = trace.New()
			recomputed := false
			again, err := c.Do(trace.NewContext(context.Background(), tr), "k", func() (int, error) { recomputed = true; return 9, nil })
			if err != nil {
				t.Fatal(err)
			}
			if recomputed == tc.wantCached {
				t.Fatalf("second probe recomputed = %v with cached = %v", recomputed, tc.wantCached)
			}
			if tc.wantCached {
				if _, outcome := probeSpan(t, tr); again != tc.wantVal || outcome != "memory-hit" {
					t.Fatalf("second probe served %d (%s), want the memory hit %d", again, outcome, tc.wantVal)
				}
			}
		})
	}
}

// TestCancelledWaiterLeavesComputationCached: a caller waiting on another
// caller's computation returns ctx.Err() as soon as its context is
// cancelled, while the computation itself runs on and is cached for the
// next caller.
func TestCancelledWaiterLeavesComputationCached(t *testing.T) {
	c := newIntCache(Tier[string, int]{})
	release := make(chan struct{})
	leader := make(chan error, 1)
	go func() {
		_, err := c.Do(context.Background(), "k", func() (int, error) { <-release; return 7, nil })
		leader <- err
	}()
	waitFor(t, func() bool { return c.Len() == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	waiter := make(chan error, 1)
	go func() {
		_, err := c.Do(ctx, "k", func() (int, error) { return 0, errors.New("waiter computed") })
		waiter <- err
	}()
	waitFor(t, func() bool { return c.Counters().Hits == 1 })
	cancel()
	if err := <-waiter; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
	}

	close(release)
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	v, err := c.Do(context.Background(), "k", func() (int, error) { return 0, errors.New("recomputed") })
	if err != nil || v != 7 {
		t.Fatalf("next caller got (%d, %v), want the cached 7", v, err)
	}
}

// TestWaiterRetriesAfterLeaderPanic: a waiter attached to a computation
// whose caller panics does not inherit the panic or wedge; it computes the
// value itself.
func TestWaiterRetriesAfterLeaderPanic(t *testing.T) {
	c := newIntCache(Tier[string, int]{})
	release := make(chan struct{})
	leader := make(chan any, 1)
	go func() {
		defer func() { leader <- recover() }()
		c.Do(context.Background(), "k", func() (int, error) { <-release; panic("leader failed") })
	}()
	waitFor(t, func() bool { return c.Len() == 1 })

	waiter := make(chan int, 1)
	go func() {
		v, err := c.Do(context.Background(), "k", func() (int, error) { return 5, nil })
		if err != nil {
			t.Error(err)
		}
		waiter <- v
	}()
	waitFor(t, func() bool { return c.Counters().Hits == 1 })
	close(release)
	if r := <-leader; r == nil {
		t.Fatal("leader's panic was swallowed")
	}
	if v := <-waiter; v != 5 {
		t.Fatalf("waiter got %d, want its own computation's 5", v)
	}
}

// TestDoCancelledUpFront: a cancelled context fails before a ready hit is
// served.
func TestDoCancelledUpFront(t *testing.T) {
	c := newIntCache(Tier[string, int]{})
	if _, err := c.Do(context.Background(), "k", func() (int, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Do(ctx, "k", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled probe returned %v, want context.Canceled", err)
	}
	if n := c.Counters(); n.Hits != 0 || n.Misses != 1 {
		t.Fatalf("cancelled probe was counted: %d hits / %d misses", n.Hits, n.Misses)
	}
}

// TestEviction drives the byte-budgeted LRU through Do. Each step is one
// probe: "k:n" computes n (charged n) on a miss, "k!n" fails after
// computing n; the keys left indexed are listed most recently used first.
func TestEviction(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget int
		steps  []string
		want   []string
	}{
		{"lru order", 20, []string{"a:10", "b:10", "c:10"}, []string{"c", "b"}},
		{"hit refreshes", 20, []string{"a:10", "b:10", "a:10", "c:10"}, []string{"c", "a"}},
		{"uneven costs", 100, []string{"a:30", "b:30", "c:90"}, []string{"c"}},
		{"over budget evicts itself", 10, []string{"a:50"}, nil},
		{"failures never charged", 10, []string{"a!50", "b:10", "c!50"}, []string{"b"}},
		{"zero budget unbounded", 0, []string{"a:1000", "b:1000", "c:1000"}, []string{"c", "b", "a"}},
		{"negative budget unbounded", -1, []string{"a:1000", "b:1000"}, []string{"b", "a"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New[string](NewBudget(tc.budget), func(v int) int { return v }, "test-probe", nil, Tier[string, int]{})
			for _, step := range tc.steps {
				key, cost, ok := strings.Cut(step, ":")
				if !ok {
					key, cost, _ = strings.Cut(step, "!")
				}
				n, _ := strconv.Atoi(cost)
				v, err := c.Do(context.Background(), key, func() (int, error) {
					if !ok {
						return n, errBoom
					}
					return n, nil
				})
				if ok && (err != nil || v != n) {
					t.Fatalf("%s: Do = (%d, %v), want (%d, nil)", step, v, err, n)
				}
			}
			if got := lruKeys(t, c); !slices.Equal(got, tc.want) {
				t.Fatalf("indexed keys %v, want %v", got, tc.want)
			}
		})
	}

	// In-flight entries are pinned: a budget overrun skips them and evicts
	// completed entries around them until they complete.
	t.Run("in flight pinned", func(t *testing.T) {
		c := New[string](NewBudget(15), func(v int) int { return v }, "test-probe", nil, Tier[string, int]{})
		release := make(chan struct{})
		done := make(chan error, 1)
		go func() {
			_, err := c.Do(context.Background(), "p", func() (int, error) { <-release; return 5, nil })
			done <- err
		}()
		waitFor(t, func() bool { return c.Len() == 1 })
		for _, k := range []string{"a", "b"} {
			if _, err := c.Do(context.Background(), k, func() (int, error) { return 10, nil }); err != nil {
				t.Fatal(err)
			}
		}
		if got := lruKeys(t, c); !slices.Equal(got, []string{"b", "p"}) {
			t.Fatalf("indexed keys %v with p in flight, want [b p]", got)
		}
		close(release)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if got := lruKeys(t, c); !slices.Equal(got, []string{"b", "p"}) {
			t.Fatalf("indexed keys %v after p completed, want [b p]", got)
		}
	})
}

// lruKeys lists the indexed keys most recently used first, checking that
// the recency list, the index and the charged total agree.
func lruKeys(t *testing.T, c *Cache[string, int]) []string {
	t.Helper()
	return budgetKeys(t, c.b, c)[0]
}

// budgetKeys lists, for each of caches, its indexed keys in the order of
// b's recency list, most recently used first, checking that the list
// holds exactly the caches' indexed entries and that their costs sum to
// b's charged total.
func budgetKeys(t *testing.T, b *Budget, caches ...*Cache[string, int]) [][]string {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	keys := make([][]string, len(caches))
	total, n := 0, 0
	for l := b.head; l != nil; l = l.next {
		e := l.owner.(*entry[string, int])
		i := slices.Index(caches, e.c)
		if i < 0 || e.c.entries[e.key] != e {
			t.Fatalf("recency list holds unindexed key %q", e.key)
		}
		keys[i] = append(keys[i], e.key)
		if l.ready {
			total += l.cost
		}
		n++
	}
	indexed := 0
	for _, c := range caches {
		indexed += len(c.entries)
	}
	if n != indexed || total != b.total {
		t.Fatalf("list of %d keys %v (cost %d) disagrees with %d indexed entries charged %d", n, keys, total, indexed, b.total)
	}
	return keys
}

// TestSharedBudget: two caches of different value types on one budget
// evict the least recently used completed entry of either cache, and the
// charged total never exceeds the limit.
func TestSharedBudget(t *testing.T) {
	b := NewBudget(30)
	ints := New[string](b, func(v int) int { return v }, "ints", nil, Tier[string, int]{})
	strs := New[string](b, func(v string) int { return len(v) }, "strs", nil, Tier[string, string]{})
	str := func(key, v string) {
		t.Helper()
		if got, err := strs.Do(context.Background(), key, func() (string, error) { return v, nil }); err != nil || got != v {
			t.Fatalf("strs.Do(%q) = (%q, %v)", key, got, err)
		}
	}
	num := func(key string, v int) {
		t.Helper()
		if got, err := ints.Do(context.Background(), key, func() (int, error) { return v, nil }); err != nil || got != v {
			t.Fatalf("ints.Do(%q) = (%d, %v)", key, got, err)
		}
	}
	order := func() []string {
		t.Helper()
		b.mu.Lock()
		defer b.mu.Unlock()
		var keys []string
		for l := b.head; l != nil; l = l.next {
			switch e := l.owner.(type) {
			case *entry[string, int]:
				keys = append(keys, "i:"+e.key)
			case *entry[string, string]:
				keys = append(keys, "s:"+e.key)
			}
		}
		if b.total > b.limit {
			t.Fatalf("charged %d over a limit of %d", b.total, b.limit)
		}
		return keys
	}
	num("a", 10)
	str("x", "0123456789")
	num("b", 10)
	if got := order(); !slices.Equal(got, []string{"i:b", "s:x", "i:a"}) {
		t.Fatalf("recency %v", got)
	}
	// A hit on a refreshes it, so the next fill in the other cache evicts
	// x, the least recently used entry of either cache.
	num("a", 10)
	str("y", "0123456789")
	if got := order(); !slices.Equal(got, []string{"s:y", "i:a", "i:b"}) {
		t.Fatalf("recency after refreshing a %v", got)
	}
	if ints.Len() != 2 || strs.Len() != 1 {
		t.Fatalf("lens %d ints / %d strs, want 2 / 1", ints.Len(), strs.Len())
	}
	// A costly fill in one cache empties the other.
	num("c", 25)
	if got := order(); !slices.Equal(got, []string{"i:c"}) {
		t.Fatalf("recency after a 25-byte fill %v", got)
	}
	if strs.Len() != 0 || b.total != 25 {
		t.Fatalf("strs holds %d entries, charged %d; want 0 and 25", strs.Len(), b.total)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 10s")
		}
		time.Sleep(time.Millisecond)
	}
}
