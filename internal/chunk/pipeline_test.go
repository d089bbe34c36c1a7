package chunk

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestExecZeroValueIsParallel pins the documented zero-value contract:
// Exec{} normalizes to the full parallel configuration — Parallel()'s
// workers AND prefetch — while Serial and explicit worker counts keep
// their stated meaning.
func TestExecZeroValueIsParallel(t *testing.T) {
	zero := Exec{}.normalized()
	par := Parallel().normalized()
	if zero != par {
		t.Fatalf("Exec{}.normalized() = %+v, want Parallel() = %+v", zero, par)
	}
	if par.Prefetch != 2*par.Workers {
		t.Fatalf("Parallel().normalized() prefetch = %d, want 2×%d", par.Prefetch, par.Workers)
	}

	ser := Serial.normalized()
	if ser.Workers != 1 || ser.Prefetch != 0 {
		t.Fatalf("Serial.normalized() = %+v, want workers=1 prefetch=0", ser)
	}

	// An explicit worker count with Prefetch: 0 means "no prefetching",
	// as documented — only the all-defaulted zero value gets the parallel
	// prefetch depth.
	explicit := Exec{Workers: 3}.normalized()
	if explicit.Workers != 3 || explicit.Prefetch != 0 {
		t.Fatalf("Exec{Workers: 3}.normalized() = %+v, want workers=3 prefetch=0", explicit)
	}

	// Negative prefetch still clamps to 0, with and without workers set.
	if nx := (Exec{Workers: 2, Prefetch: -1}).normalized(); nx.Prefetch != 0 {
		t.Fatalf("negative prefetch normalized to %d, want 0", nx.Prefetch)
	}
	if nx := (Exec{Prefetch: -1}).normalized(); nx.Workers != runtime.GOMAXPROCS(0) || nx.Prefetch != 0 {
		t.Fatalf("Exec{Prefetch: -1}.normalized() = %+v, want workers=GOMAXPROCS prefetch=0", nx)
	}
}

// TestAdmissionTicketsBoundResidency pins the pipeline's residency bound:
// under a deliberately skewed straggler mapFn, the number of chunks
// admitted past read and not yet retired by commit never exceeds
// Workers+Prefetch+1. This is the invariant AutoRows sizes memory budgets
// against, so the larger-than-RAM regime depends on it.
func TestAdmissionTicketsBoundResidency(t *testing.T) {
	const n = 64
	ex := Exec{Workers: 4, Prefetch: 3}
	bound := ex.Workers + ex.Prefetch + 1

	var cur, peak atomic.Int64
	var release sync.Once
	unblock := make(chan struct{})

	read := func(ci int) (int, error) {
		v := cur.Add(1)
		for {
			old := peak.Load()
			if v <= old || peak.CompareAndSwap(old, v) {
				break
			}
		}
		// Once the pipeline has admitted as many chunks as it ever may,
		// let the straggler finish: if admission control were broken, the
		// reader would have run past the bound before this fires.
		if v >= int64(bound) {
			release.Do(func() { close(unblock) })
		}
		return ci, nil
	}
	mapFn := func(ci int, c int) (any, error) {
		if ci == 0 {
			// The straggler: chunk 0 blocks every commit (ordered) while
			// later chunks pile up behind it.
			<-unblock
		}
		return c, nil
	}
	next := 0
	commit := func(ci int, v any) error {
		if ci != next {
			t.Errorf("commit out of order: got %d, want %d", ci, next)
		}
		next++
		cur.Add(-1)
		return nil
	}
	if err := runPipelineOrder(n, ex, nil, read, mapFn, commit); err != nil {
		t.Fatal(err)
	}
	if next != n {
		t.Fatalf("committed %d chunks, want %d", next, n)
	}
	if got := peak.Load(); got > int64(bound) {
		t.Fatalf("peak in-flight residency %d exceeds Workers+Prefetch+1 = %d", got, bound)
	}
	// The straggler really did hold the bound open: the pipeline reached
	// it (otherwise the release never fired and the test would deadlock).
	if got := peak.Load(); got != int64(bound) {
		t.Fatalf("peak in-flight residency %d, want the full bound %d", got, bound)
	}
}
