package main

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/ml"
	"repro/internal/serve"
)

// small is the shape every test serves: a 500-row PK-FK join.
var small = []string{"-ns", "500", "-ds", "4", "-nr", "50", "-dr", "16"}

func serveRun(t *testing.T, stdin string, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	var out, errOut bytes.Buffer
	err = run(append(append([]string{}, small...), args...), strings.NewReader(stdin), &out, &errOut)
	return out.String(), errOut.String(), err
}

// TestServeBadFlagsAreOneLineErrors: a bad model, placement or fleet width
// is one line, before any data is generated or anything is served.
func TestServeBadFlagsAreOneLineErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-model", "x"},
		{"-placement", "x"},
		{"-replicas", "0"},
	} {
		out, errOut, err := serveRun(t, "0\n", args...)
		if err == nil {
			t.Fatalf("%v: no error", args)
		}
		if msg := err.Error(); msg == "" || strings.Contains(msg, "\n") {
			t.Fatalf("%v: error %q is not one line", args, msg)
		}
		if out != "" || errOut != "" {
			t.Fatalf("%v: printed %q on stdout and %q on stderr before failing", args, out, errOut)
		}
	}
}

// TestServeScoresMatchInProcess: a row, a batch and "all" print exactly the
// scores of the same model trained and served in-process.
func TestServeScoresMatchInProcess(t *testing.T) {
	out, _, err := serveRun(t, "0\n1,2,3\nall\n", "-iters", "5")
	if err != nil {
		t.Fatal(err)
	}

	nm, err := datagen.PKFK(datagen.PKFKSpec{NS: 500, DS: 4, NR: 50, DR: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	w, err := ml.LogisticRegressionGD(nm, datagen.Labels(nm, 0.1, true, 2), nil, ml.Options{Iters: 5, StepSize: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := serve.NewScorer(nm, w, serve.Logistic)
	if err != nil {
		t.Fatal(err)
	}
	all := sc.ScoreAll()
	var want strings.Builder
	for _, id := range []int{0, 1, 2, 3} {
		fmt.Fprintf(&want, "%d,%g\n", id, all[id])
	}
	for id, v := range all {
		fmt.Fprintf(&want, "%d,%g\n", id, v)
	}
	if out != want.String() {
		t.Fatalf("stdout differs from the in-process scores:\n%.300s\nwant\n%.300s", out, want.String())
	}
}

// TestServeMutableFleetsAgree: one set/commit/score script prints the same
// bytes from one scorer, a two-way sharded fleet and a three-way
// replicated one.
func TestServeMutableFleetsAgree(t *testing.T) {
	const script = "3\n7,8\nset s 3 NaN,1,2,3\nset s 3 0.5,1,2,3\nset r1 8 " +
		"1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1\ncommit\n3\n7,8\nepoch\nall\n"
	var first string
	for i, fleet := range [][]string{
		{"-replicas", "1"},
		{"-replicas", "2"},
		{"-replicas", "3", "-placement", "replicated"},
	} {
		out, _, err := serveRun(t, script, append([]string{"-mutable", "-iters", "5"}, fleet...)...)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, "epoch,2,rows,2\n") || !strings.Contains(out, "epoch,2\n") {
			t.Fatalf("%v: commit not served:\n%.300s", fleet, out)
		}
		if i == 0 {
			first = out
		} else if out != first {
			t.Fatalf("%v prints other bytes than one scorer:\n%.300s\nwant\n%.300s", fleet, out, first)
		}
	}
}

// TestServeDrainAnswersAccepted: when a signal ends the request stream
// (main closes it with errDrain), run answers every request it already
// accepted, reports the drain on stderr and returns nil.
func TestServeDrainAnswersAccepted(t *testing.T) {
	const n = 40
	var reqs strings.Builder
	for id := 0; id < n; id++ {
		fmt.Fprintf(&reqs, "%d\n", id*7%500)
	}
	want, _, err := serveRun(t, reqs.String(), "-iters", "2")
	if err != nil {
		t.Fatal(err)
	}

	in, stream := io.Pipe()
	var out, errOut bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run(append(append([]string{}, small...), "-iters", "2"), in, &out, &errOut)
	}()
	for _, line := range strings.SplitAfter(reqs.String(), "\n") {
		if _, err := io.WriteString(stream, line); err != nil {
			t.Fatal(err)
		}
	}
	stream.CloseWithError(errDrain)
	if err := <-done; err != nil {
		t.Fatalf("drained run returned %v, want nil", err)
	}
	if out.String() != want {
		t.Fatalf("drained run answered\n%.300s\nwant every accepted request answered:\n%.300s", out.String(), want)
	}
	if line := fmt.Sprintf("morpheus-serve: drained; accepted=%d rejected=0 ", n); !strings.Contains(errOut.String(), line) {
		t.Fatalf("stderr %q lacks %q", errOut.String(), line)
	}
}
