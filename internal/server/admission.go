package server

import (
	"errors"
	"sync"
)

// errQueueFull is returned by admit when the server already carries its
// configured number of in-flight computations; the handler answers 429
// with a Retry-After estimate instead of accepting unboundedly.
var errQueueFull = errors.New("server: admission queue full")

// admission bounds how many coalesced computations may be in flight at
// once. Since flights submit task graphs to the engine's shared
// work-stealing scheduler (which multiplexes every flight over one worker
// pool, ordered by request deadline), a flight no longer occupies a "run
// slot" for its wall-clock: admission is a pure back-pressure gate. The
// first workers admitted flights (one per engine worker) count as running,
// the excess — work the scheduler holds as backlog — as queued; beyond
// workers+queueDepth admit rejects immediately, without blocking.
type admission struct {
	workers  int
	capacity int // workers + queueDepth

	mu       sync.Mutex
	inflight int
}

func newAdmission(workers, queueDepth int) *admission {
	return &admission{workers: workers, capacity: workers + queueDepth}
}

// admit claims an in-flight seat without blocking. It returns a release
// function on success or errQueueFull when capacity flights are already in
// flight. release must be called exactly once (extra calls are no-ops).
func (a *admission) admit() (release func(), err error) {
	a.mu.Lock()
	if a.inflight >= a.capacity {
		a.mu.Unlock()
		return nil, errQueueFull
	}
	a.inflight++
	a.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			a.mu.Lock()
			a.inflight--
			a.mu.Unlock()
		})
	}, nil
}

// running reports how many in-flight computations count as running: at
// most one per engine worker.
func (a *admission) running() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return min(a.inflight, a.workers)
}

// queuedWaiting reports the in-flight computations beyond the engine's
// workers — the scheduler backlog admission still accepts.
func (a *admission) queuedWaiting() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return max(0, a.inflight-a.workers)
}

// backlog reports the in-flight computations per engine worker, read once
// under the lock.
func (a *admission) backlog() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return float64(a.inflight) / float64(a.workers)
}
