package server

import (
	"context"
	"errors"
	"testing"
	"time"

	"plim"
)

func TestAdmissionCapsInflight(t *testing.T) {
	a := newAdmission(1, 1)
	rel1, err := a.admit() // counts as running
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := a.admit() // beyond concurrency: counts as queued
	if err != nil {
		t.Fatal(err)
	}
	if a.running() != 1 || a.queuedWaiting() != 1 {
		t.Fatalf("gauges: running=%d queued=%d, want 1/1", a.running(), a.queuedWaiting())
	}
	// Capacity (concurrency + queue) reached: the next admit must reject
	// immediately, never block.
	if _, err := a.admit(); !errors.Is(err, errQueueFull) {
		t.Fatalf("want errQueueFull, got %v", err)
	}
	rel1()
	if a.running() != 1 || a.queuedWaiting() != 0 {
		t.Fatalf("after one release: running=%d queued=%d, want 1/0", a.running(), a.queuedWaiting())
	}
	rel2()
	if a.running() != 0 || a.queuedWaiting() != 0 {
		t.Fatalf("seats leaked: running=%d queued=%d", a.running(), a.queuedWaiting())
	}
	// Everything released: a fresh admission must succeed again.
	rel3, err := a.admit()
	if err != nil {
		t.Fatal(err)
	}
	rel3()
}

func TestAdmissionReleaseIdempotent(t *testing.T) {
	a := newAdmission(2, 2)
	rel, err := a.admit()
	if err != nil {
		t.Fatal(err)
	}
	rel()
	rel() // second call must be a no-op, not a seat underflow
	if a.running() != 0 {
		t.Fatal("double release corrupted seat accounting")
	}
}

// TestRetryAfterColdStart: before the scheduler has timed any task the
// one Retry-After estimator answers ⌈in-flight ÷ concurrency⌉ seconds,
// clamped to [1 s, 60 s]. Once it has latency history the scheduler's
// backlog decides alone: with nothing queued that is the 1 s floor,
// however many flights admission holds.
func TestRetryAfterColdStart(t *testing.T) {
	eng := plim.NewEngine(plim.WithWorkers(2), plim.WithEffort(1))
	s := New(eng, Options{QueueDepth: 198})
	rows := []struct {
		inflight   int
		cold, warm time.Duration
	}{{0, time.Second, time.Second}, {5, 3 * time.Second, time.Second}, {200, 60 * time.Second, time.Second}}
	check := func(warm bool) {
		for _, tc := range rows {
			var releases []func()
			for i := 0; i < tc.inflight; i++ {
				rel, err := s.adm.admit()
				if err != nil {
					t.Fatal(err)
				}
				releases = append(releases, rel)
			}
			want := tc.cold
			if warm {
				want = tc.warm
			}
			if got := s.retryAfter(); got != want {
				t.Errorf("warm=%v, %d in flight over concurrency 2: Retry-After %v, want %v", warm, tc.inflight, got, want)
			}
			for _, rel := range releases {
				rel()
			}
		}
	}
	check(false)

	ctx := context.Background()
	m, err := eng.Benchmark(ctx, "ctrl", 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(ctx, m, plim.Config{}); err != nil {
		t.Fatal(err)
	}
	if st := eng.SchedulerStats(); len(st.Latency) == 0 || st.Runnable != 0 {
		t.Fatalf("after a compile: latency history for %d kinds, %d runnable; want history and an empty queue", len(st.Latency), st.Runnable)
	}
	check(true)
}
