package exec

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"

	"plim/internal/rram"
	"plim/internal/sched"
)

// TestRunShardedMatchesSequential is the determinism proof for parallel
// chunk joins: for every Table I policy, outputs, per-cell write counts
// and per-cell switch counts of the sharded run are exactly the
// sequential RunContext's, across several worker counts and batch shapes.
func TestRunShardedMatchesSequential(t *testing.T) {
	_, progs := compileAll(t, "int2float", 2)
	for name, p := range progs {
		pl, err := Compile(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, vectors := range []int{1, 64, 65, 257, 1024} {
			b := Random(pl.NumInputs(), vectors, int64(vectors)*7+3)
			want, err := pl.RunContext(context.Background(), b, Options{})
			if err != nil {
				t.Fatalf("%s/%d: %v", name, vectors, err)
			}
			for _, workers := range []int{2, 3, 8} {
				pool := sched.New(workers)
				got, err := pl.RunSharded(context.Background(), b, Options{}, pool)
				pool.Stop()
				if err != nil {
					t.Fatalf("%s/%d/w%d: %v", name, vectors, workers, err)
				}
				if !slices.Equal(want.Writes, got.Writes) {
					t.Fatalf("%s/%d/w%d: write counts diverge", name, vectors, workers)
				}
				if !slices.Equal(want.Switches, got.Switches) {
					t.Fatalf("%s/%d/w%d: switch counts diverge", name, vectors, workers)
				}
				if want.Vectors != got.Vectors {
					t.Fatalf("%s/%d/w%d: vectors %d vs %d", name, vectors, workers, want.Vectors, got.Vectors)
				}
				if want.Outputs.Hash() != got.Outputs.Hash() ||
					!slices.Equal(want.Outputs.Strings(), got.Outputs.Strings()) {
					t.Fatalf("%s/%d/w%d: outputs diverge", name, vectors, workers)
				}
			}
		}
	}
}

// TestRunShardedFaultMatchesSequential: an endurance fault in the sharded
// run reports the same instruction and partial wear as the sequential one.
func TestRunShardedFaultMatchesSequential(t *testing.T) {
	_, progs := compileAll(t, "ctrl", 1)
	pl, err := Compile(progs["naive"])
	if err != nil {
		t.Fatal(err)
	}
	b := Random(pl.NumInputs(), 300, 0xfeed)
	opts := Options{Endurance: 2}
	want, werr := pl.RunContext(context.Background(), b, opts)
	if werr == nil {
		t.Skip("naive/ctrl does not fault at endurance 2")
	}
	pool := sched.New(4)
	defer pool.Stop()
	got, gerr := pl.RunSharded(context.Background(), b, opts, pool)
	if gerr == nil {
		t.Fatal("sharded run did not fault")
	}
	var wf, gf *FaultError
	if !errors.As(werr, &wf) || !errors.As(gerr, &gf) {
		t.Fatalf("errors %v / %v are not FaultErrors", werr, gerr)
	}
	if wf.Inst != gf.Inst {
		t.Fatalf("fault at inst %d (sharded) vs %d (sequential)", gf.Inst, wf.Inst)
	}
	if !errors.Is(gerr, rram.ErrWornOut) {
		t.Fatal("sharded fault does not wrap ErrWornOut")
	}
	if !slices.Equal(want.Writes, got.Writes) || !slices.Equal(want.Switches, got.Switches) {
		t.Fatal("partial wear diverges on fault")
	}
}

// TestRunShardedOnChunk: every chunk is reported exactly once with
// monotone done counts (values 1..total, unordered across workers).
func TestRunShardedOnChunk(t *testing.T) {
	_, progs := compileAll(t, "ctrl", 1)
	pl, err := Compile(progs["full"])
	if err != nil {
		t.Fatal(err)
	}
	b := Random(pl.NumInputs(), 64*9, 42)
	pool := sched.New(4)
	defer pool.Stop()
	var mu sync.Mutex
	seen := map[int]int{}
	_, err = pl.RunSharded(context.Background(), b, Options{
		OnChunk: func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			if total != 9 {
				t.Errorf("total = %d, want 9", total)
			}
			seen[done]++
		},
	}, pool)
	if err != nil {
		t.Fatal(err)
	}
	for d := 1; d <= 9; d++ {
		if seen[d] != 1 {
			t.Fatalf("done=%d reported %d times", d, seen[d])
		}
	}
}

// TestRunShardedCancellation: a cancelled context surfaces as ctx.Err().
func TestRunShardedCancellation(t *testing.T) {
	_, progs := compileAll(t, "ctrl", 1)
	pl, err := Compile(progs["full"])
	if err != nil {
		t.Fatal(err)
	}
	b := Random(pl.NumInputs(), 64*32, 7)
	pool := sched.New(2)
	defer pool.Stop()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pl.RunSharded(ctx, b, Options{}, pool); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}
