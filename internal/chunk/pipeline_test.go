package chunk

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestExecZeroValueIsParallel pins the one setting's contract: Exec{}
// normalizes to Parallel(), Serial has no lookahead, and W > 1 workers
// read 2W chunks ahead inside a window of 3W+1.
func TestExecZeroValueIsParallel(t *testing.T) {
	if zero, par := (Exec{}).normalized(), Parallel().normalized(); zero != par {
		t.Fatalf("Exec{}.normalized() = %+v, want Parallel() = %+v", zero, par)
	}
	if nx := (Exec{Workers: -3}).normalized(); nx.Workers != runtime.GOMAXPROCS(0) {
		t.Fatalf("Exec{Workers: -3}.normalized() = %+v, want GOMAXPROCS workers", nx)
	}
	if ahead, win := Serial.depth(); ahead != 0 || win != 2 {
		t.Fatalf("Serial.depth() = (%d, %d), want no lookahead, window 2", ahead, win)
	}
	for _, w := range []int{2, 3, 4, 8} {
		if ahead, win := (Exec{Workers: w}).depth(); ahead != 2*w || win != 3*w+1 {
			t.Fatalf("Exec{Workers: %d}.depth() = (%d, %d), want (%d, %d)", w, ahead, win, 2*w, 3*w+1)
		}
	}
}

// TestSerialCommitsBeforeNextRead pins the serial reference loop: chunk
// ci+1 is read only after chunk ci has been committed.
func TestSerialCommitsBeforeNextRead(t *testing.T) {
	const n = 16
	var events []string
	read := func(ci int) (int, error) {
		events = append(events, fmt.Sprint("read ", ci))
		return ci, nil
	}
	mapFn := func(ci int, c int) (any, error) { return c, nil }
	commit := func(ci int, v any) error {
		events = append(events, fmt.Sprint("commit ", ci))
		return nil
	}
	if err := runPipeline(n, Serial, read, mapFn, commit); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2*n {
		t.Fatalf("%d events, want %d: %v", len(events), 2*n, events)
	}
	for ci := 0; ci < n; ci++ {
		if events[2*ci] != fmt.Sprint("read ", ci) || events[2*ci+1] != fmt.Sprint("commit ", ci) {
			t.Fatalf("event %d: %v, want read %d then commit %d", 2*ci, events, ci, ci)
		}
	}
}

// TestAdmissionTicketsBoundResidency pins the pipeline's residency bound:
// under a deliberately skewed straggler mapFn, the number of chunks
// admitted past read and not yet retired by commit never exceeds the
// window 3W+1. This is the invariant AutoRows sizes memory budgets
// against, so the larger-than-RAM regime depends on it.
func TestAdmissionTicketsBoundResidency(t *testing.T) {
	for _, w := range []int{2, 3, 4} {
		t.Run(fmt.Sprint("workers=", w), func(t *testing.T) { testAdmissionBound(t, w) })
	}
}

func testAdmissionBound(t *testing.T, w int) {
	const n = 64
	ex := Exec{Workers: w}
	bound := 3*w + 1

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
	if err := runPipeline(n, ex, read, mapFn, commit); err != nil {
		t.Fatal(err)
	}
	if next != n {
		t.Fatalf("committed %d chunks, want %d", next, n)
	}
	if got := peak.Load(); got > int64(bound) {
		t.Fatalf("peak in-flight residency %d exceeds 3W+1 = %d", got, bound)
	}
	// The straggler really did hold the bound open: the pipeline reached
	// it (otherwise the release never fired and the test would deadlock).
	if got := peak.Load(); got != int64(bound) {
		t.Fatalf("peak in-flight residency %d, want the full bound %d", got, bound)
	}
}
