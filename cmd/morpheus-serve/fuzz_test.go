package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// fuzzFleet is the tiny mutable fleet FuzzServeProtocol drives: a 40-row
// join with 3-wide attribute rows, hash-sharded over two replicas.
var fuzzFleet = []string{"-ns", "40", "-ds", "2", "-nr", "5", "-dr", "3", "-iters", "1", "-mutable", "-replicas", "2"}

// protocolLine reports whether line is one of the forms morpheus-serve
// prints on stdout: "id,score", "epoch,V", "epoch,V,rows,R" or "staged,N".
func protocolLine(line string) bool {
	f := strings.Split(line, ",")
	count := func(s string) bool { _, err := strconv.ParseUint(s, 10, 64); return err == nil }
	switch {
	case f[0] == "epoch":
		return len(f) == 2 && count(f[1]) || len(f) == 4 && count(f[1]) && f[2] == "rows" && count(f[3])
	case f[0] == "staged":
		return len(f) == 2 && count(f[1])
	case len(f) == 2:
		_, idErr := strconv.Atoi(f[0])
		_, scoreErr := strconv.ParseFloat(f[1], 64)
		return idErr == nil && scoreErr == nil
	}
	return false
}

// FuzzServeProtocol feeds any stdin to run over a mutable two-replica
// fleet: it must not panic, must return nil or a one-line error, and every
// stdout line must be one of the protocol's forms.
func FuzzServeProtocol(f *testing.F) {
	for _, seed := range []string{
		"all\n",
		"0\n1,2,3\n39\n",
		"7,7,7\n,\n1,,2\n",
		"set s 3 0.5,1\ncommit\n3\nepoch\n",
		"set r1 4 1,2,3\nset s 0 -1,2\ncommit\nall\n",
		"set s 40 1,2\nset s -1 1,2\nset r1 5 1,2,3\nset r2 0 1,2,3\nset r0 0 1,2,3\nset rx 0 1\n",
		"40\n-1\n0,40\n99999999999999999999\n",
		"set s 3 NaN,1\nset s 3 1\nset s 3 1,2,3\nset s 3\ncommit\ncommit\nepoch\n",
		"# comment\n\n  epoch  \nset s 1 1e308,-1e308\ncommit\n1\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, stdin []byte) {
		var out, errOut bytes.Buffer
		if err := run(fuzzFleet, bytes.NewReader(stdin), &out, &errOut); err != nil {
			if msg := err.Error(); msg == "" || strings.Contains(msg, "\n") {
				t.Fatalf("error %q is not one line", msg)
			}
		}
		for _, line := range strings.SplitAfter(out.String(), "\n") {
			if line == "" {
				continue
			}
			if !strings.HasSuffix(line, "\n") || !protocolLine(strings.TrimSuffix(line, "\n")) {
				t.Fatalf("stdout line %q is none of the protocol's forms", line)
			}
		}
	})
}
