package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
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
		err := run(args, &stderr)
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
