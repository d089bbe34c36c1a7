package main

import (
	"bytes"
	"errors"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/chunk"
	"repro/internal/la"
	"repro/internal/ml"
)

// TestMain runs main itself when the test binary is started as the
// command, so a test can observe its exit status.
func TestMain(m *testing.M) {
	if os.Getenv("MORPHEUS_CHUNKD_MAIN") == "1" {
		os.Args = append(os.Args[:1], strings.Fields(os.Getenv("MORPHEUS_CHUNKD_ARGS"))...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestChunkdBadInvocationsAreOneLineErrors: a missing -dir, an unknown flag
// and a -dir that cannot be created each end run with a one-line error
// before anything listens, and the command with that line and exit 1.
func TestChunkdBadInvocationsAreOneLineErrors(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-addr", "127.0.0.1:0"},
		{"-addr", "127.0.0.1:0", "-bogus"},
		{"-addr", "127.0.0.1:0", "-dir", filepath.Join(file, "sub")},
	} {
		var stderr bytes.Buffer
		err := run(args, &stderr, net.Listen)
		if err == nil {
			t.Fatalf("%v: no error", args)
		}
		if msg := err.Error(); msg == "" || strings.Contains(msg, "\n") {
			t.Fatalf("%v: error %q is not one line", args, msg)
		}

		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "MORPHEUS_CHUNKD_MAIN=1", "MORPHEUS_CHUNKD_ARGS="+strings.Join(args, " "))
		var out bytes.Buffer
		cmd.Stderr = &out
		var exit *exec.ExitError
		if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("%v: command ended with %v, want exit status 1", args, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if last := lines[len(lines)-1]; last != "morpheus-chunkd: "+err.Error() {
			t.Fatalf("%v: last stderr line %q, want %q", args, last, "morpheus-chunkd: "+err.Error())
		}
	}
}

// TestChunkdServesPushdown: the command serves a shard on 127.0.0.1:0 and
// logs the address it bound; a store whose one shard is that server maps
// a materialized Gram and k-means' assignment passes on it
// (ChunksExecuted > 0 after each) with results bitwise those of a
// local-directory store; closing the listener ends run.
func TestChunkdServesPushdown(t *testing.T) {
	lns := make(chan net.Listener, 1)
	listen := func(network, addr string) (net.Listener, error) {
		ln, err := net.Listen(network, addr)
		if err == nil {
			lns <- ln
		}
		return ln, err
	}
	var stderr bytes.Buffer
	done := make(chan error, 1)
	go func() { done <- run([]string{"-addr", "127.0.0.1:0", "-dir", t.TempDir()}, &stderr, listen) }()
	var ln net.Listener
	select {
	case ln = <-lns:
	case err := <-done:
		t.Fatalf("run ended before listening: %v", err)
	}

	rb, err := chunk.NewRemoteBackend("http://" + ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	dir, err := chunk.NewDirBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d := la.NewDense(203, 5) // 13 chunks of 16 rows, the last ragged
	rng := rand.New(rand.NewSource(9))
	for i := range d.Data() {
		d.Data()[i] = rng.NormFloat64()
	}
	ex := chunk.Exec{Workers: 2, Prefetch: 2}
	var gram [2]*la.Dense
	var km [2]*ml.KMeansFit
	var stores [2]*chunk.Store
	for i, b := range []chunk.Backend{rb, dir} {
		s, err := chunk.NewShardedStoreBackends([]chunk.Backend{b}, chunk.RoundRobin)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = s
		m, err := chunk.FromDense(s, d, 16)
		if err != nil {
			t.Fatal(err)
		}
		executed := s.IOStats().ChunksExecuted
		if gram[i], err = chunk.MatOperand(ex, m).Gram(); err != nil {
			t.Fatal(err)
		}
		if n := s.IOStats().ChunksExecuted - executed; (i == 0) != (n > 0) {
			t.Fatalf("store %d: Gram executed %d chunks on its shard", i, n)
		}
		executed = s.IOStats().ChunksExecuted
		if km[i], err = ml.KMeansScan(chunk.MatOperand(ex, m), 3, ml.Options{Iters: 4, Seed: 7}); err != nil {
			t.Fatal(err)
		}
		if n := s.IOStats().ChunksExecuted - executed; (i == 0) != (n > 0) {
			t.Fatalf("store %d: k-means executed %d chunks on its shard", i, n)
		}
	}
	if la.MaxAbsDiff(gram[0], gram[1]) != 0 {
		t.Fatal("Gram through morpheus-chunkd differs from the local-directory store's")
	}
	if la.MaxAbsDiff(km[0].Centroids, km[1].Centroids) != 0 || km[0].Objective != km[1].Objective {
		t.Fatal("k-means through morpheus-chunkd differs from the local-directory store's")
	}
	for _, s := range stores {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}

	ln.Close()
	if err := <-done; err == nil {
		t.Fatal("run returned nil after its listener closed")
	}
	if !strings.Contains(stderr.String(), "on "+ln.Addr().String()+" ") {
		t.Fatalf("the log does not name the bound address %s: %q", ln.Addr(), stderr.String())
	}
}
