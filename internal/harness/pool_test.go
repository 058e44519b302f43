package harness

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core/alloc"
	"repro/internal/systems/dfs"
	"repro/internal/systems/sysreg"
)

func TestTokenPoolBasics(t *testing.T) {
	p := NewTokenPool(2)
	if p.Cap() != 2 || p.InUse() != 0 {
		t.Fatalf("fresh pool: cap=%d inuse=%d", p.Cap(), p.InUse())
	}
	ctx := context.Background()
	if !p.Acquire(ctx) || !p.Acquire(ctx) {
		t.Fatal("acquire under capacity failed")
	}
	if p.InUse() != 2 {
		t.Fatalf("inuse = %d, want 2", p.InUse())
	}
	// A full pool blocks until a token frees or the context dies.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if p.Acquire(cctx) {
		t.Fatal("acquire on a full pool with a dead context succeeded")
	}
	p.Release()
	if !p.Acquire(ctx) {
		t.Fatal("acquire after release failed")
	}
	p.Release()
	p.Release()
	if p.InUse() != 0 {
		t.Fatalf("inuse = %d after all releases", p.InUse())
	}
}

func TestTokenPoolMinimumCapacity(t *testing.T) {
	for _, n := range []int{0, -3} {
		if got := NewTokenPool(n).Cap(); got != 1 {
			t.Fatalf("NewTokenPool(%d).Cap() = %d, want 1", n, got)
		}
	}
}

// TestTokenPoolBoundsConcurrency drives many goroutines through a small
// pool and asserts the in-flight count never exceeds capacity.
func TestTokenPoolBoundsConcurrency(t *testing.T) {
	const capacity, workers = 3, 24
	p := NewTokenPool(capacity)
	var inFlight, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !p.Acquire(context.Background()) {
				t.Error("acquire failed")
				return
			}
			n := inFlight.Add(1)
			for {
				old := peak.Load()
				if n <= old || peak.CompareAndSwap(old, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			inFlight.Add(-1)
			p.Release()
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > capacity {
		t.Fatalf("peak in-flight = %d, exceeds pool capacity %d", got, capacity)
	}
	if p.InUse() != 0 {
		t.Fatalf("inuse = %d after all workers finished", p.InUse())
	}
}

// TestSharedPoolDeterminism is the layered-budget contract: a driver
// executing under a shared (and maximally contended) token pool produces
// exactly the records and graph it produces without one. The pool
// throttles scheduling, never results.
func TestSharedPoolDeterminism(t *testing.T) {
	sys := dfs.NewV2()
	space := sysreg.Space(sys)
	var wave []alloc.PlannedRun
	for _, id := range space.IDs()[:4] {
		wave = append(wave, alloc.PlannedRun{Fault: id, Test: "basic_write"})
	}

	run := func(pool *TokenPool) ([]alloc.RunRecord, int) {
		d := New(sys, space, Config{
			Reps:            2,
			DelayMagnitudes: []time.Duration{2 * time.Second},
			Parallelism:     4,
			Pool:            pool,
		})
		defer d.Release()
		recs, _ := d.ExecuteWave(wave)
		return recs, d.Graph().Len()
	}

	baseRecs, baseEdges := run(nil)
	shared := NewTokenPool(1) // worst case: full serialization
	poolRecs, poolEdges := run(shared)
	if !reflect.DeepEqual(baseRecs, poolRecs) {
		t.Fatalf("run records differ under shared pool:\n  base:   %+v\n  pooled: %+v",
			baseRecs, poolRecs)
	}
	if baseEdges != poolEdges {
		t.Fatalf("edge counts differ under shared pool: %d vs %d", baseEdges, poolEdges)
	}
	if shared.InUse() != 0 {
		t.Fatalf("shared pool leaked %d tokens", shared.InUse())
	}
}

// TestPoolCancellationReleasesTokens: a driver whose context dies while
// its runs hold pool tokens must return them all on unwind.
func TestPoolCancellationReleasesTokens(t *testing.T) {
	sys := dfs.NewV2()
	space := sysreg.Space(sys)
	ctx, cancel := context.WithCancel(context.Background())
	pool := NewTokenPool(2)
	d := New(sys, space, Config{
		Reps:            2,
		DelayMagnitudes: []time.Duration{2 * time.Second},
		Parallelism:     2,
		Pool:            pool,
	})
	defer d.Release()
	d.Bind(ctx)
	var wave []alloc.PlannedRun
	for _, id := range space.IDs() {
		wave = append(wave, alloc.PlannedRun{Fault: id, Test: "basic_write"})
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		d.ExecuteWave(wave)
	}()
	cancel()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("ExecuteWave did not unwind after cancellation")
	}
	if pool.InUse() != 0 {
		t.Fatalf("cancelled driver leaked %d pool tokens", pool.InUse())
	}
}

// TestWorkerPanicSurfacesOnCaller: a panic on a pool worker goroutine
// re-raises on the goroutine that called into the driver (after all
// workers have settled), so a service job's recover barrier can catch
// it instead of the process dying.
func TestWorkerPanicSurfacesOnCaller(t *testing.T) {
	sys := dfs.NewV2()
	space := sysreg.Space(sys)
	d := New(sys, space, Config{
		Reps:            2,
		DelayMagnitudes: []time.Duration{2 * time.Second},
		Parallelism:     4,
	})
	defer d.Release()
	var ran atomic.Int64
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic from worker goroutine did not surface on the caller")
			}
		}()
		d.each(8, func(i int) {
			ran.Add(1)
			if i == 3 {
				panic("worker exploded")
			}
		})
	}()
	if got := ran.Load(); got != 8 {
		t.Fatalf("each ran %d of 8 workers; the panic must not strand siblings", got)
	}
}

// TestReleaseReturnsProfileRuns asserts the teardown resource contract:
// a driver holds its pooled profile runs until Release returns them,
// the accumulated graph stays readable afterwards, and Release is
// idempotent.
func TestReleaseReturnsProfileRuns(t *testing.T) {
	d := lightDriver(t)
	d.Execute(dfs.PtNNIBRProcessLoop, "ibr_storm")
	if held := d.ProfileRunsHeld(); held == 0 {
		t.Fatal("expected pooled profile runs before Release")
	}
	edges := d.Edges()
	d.Release()
	if held := d.ProfileRunsHeld(); held != 0 {
		t.Fatalf("after Release: %d profile runs still held", held)
	}
	if got := d.Edges(); !reflect.DeepEqual(got, edges) {
		t.Fatalf("Release changed the graph: %d edges, want %d", len(got), len(edges))
	}
	d.Release()
	if held := d.ProfileRunsHeld(); held != 0 {
		t.Fatalf("after second Release: %d profile runs held", held)
	}
}

// TestCancelledDriverReleasesTraces: a driver cancelled mid-campaign
// releases its pooled profile runs like a finished one.
func TestCancelledDriverReleasesTraces(t *testing.T) {
	d := lightDriver(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	d.Bind(ctx)
	d.Execute(dfs.PtNNIBRProcessLoop, "ibr_storm")
	cancel()
	d.Execute(dfs.PtDNIBRRPCIOE, "ibr_interval")
	if held := d.ProfileRunsHeld(); held == 0 {
		t.Fatal("expected pooled profile runs before Release")
	}
	d.Release()
	if held := d.ProfileRunsHeld(); held != 0 {
		t.Fatalf("after Release: %d profile runs still held", held)
	}
}
