// Command morpheus-chunkd serves one chunk-store shard directory over HTTP
// — and executes ops on the chunks it holds — so a sharded out-of-core
// store on another machine can place spill chunks here
// (chunk.NewRemoteBackend / morpheus-bench -remote-shards). Every
// registered-op pass the store runs maps the chunks held here in place
// instead of streaming them back: the shard's capability decides, no
// client option does.
//
// Usage:
//
//	morpheus-chunkd -dir /fast/disk/spill
//	morpheus-chunkd -dir /spill -addr :9431 -max-chunk-mb 1024
//
// Wire protocol (see chunk.ChunkServer): PUT/GET/HEAD/DELETE /chunks/{key}
// for chunk blobs, GET /chunks for the stored-key listing, DELETE /chunks
// to reap every chunk plus interrupted-spill temp debris (the remote
// analogue of startup orphan reaping — the store issues it when it adopts
// the shard). POST /exec runs a registered per-chunk op (crossprod,
// kmeans-assign-v2) over listed local chunks and streams back
// the encoded partials in request order, so only partials — not chunks —
// cross the wire; the driver remains the reducer, checks each partial's
// shape against the op, and results are bit-identical with an all-local
// pass. A chunk that fails to decode — a CSR header claiming more entries
// than its blob holds, say — is an in-band error frame, never a crash. An
// /exec request from an older driver over a compressed store is answered
// 400 — a per-request error, not "no /exec" — so that driver reads those
// chunks itself. Uploads above -max-chunk-mb are rejected; writes are
// atomic (temp file + rename), so a client or server crash never leaves a
// truncated chunk readable.
//
// Run one chunkd shard per store: adopting a shard reaps whatever a
// previous (crashed) run left in it.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"

	"repro/internal/chunk"
)

func main() {
	if err := run(os.Args[1:], os.Stderr, net.Listen); err != nil {
		fmt.Fprintf(os.Stderr, "morpheus-chunkd: %v\n", err)
		os.Exit(1)
	}
}

// run validates the flags, opens the shard directory, listens on -addr
// through listen and serves the shard until the listener fails or is
// closed.
func run(args []string, stderr io.Writer, listen func(network, addr string) (net.Listener, error)) error {
	fs := flag.NewFlagSet("morpheus-chunkd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr  = fs.String("addr", ":9431", "listen address")
		dir   = fs.String("dir", "", "shard directory to serve (required)")
		maxMB = fs.Int64("max-chunk-mb", chunk.DefaultMaxChunkBytes>>20, "largest accepted chunk upload in MiB")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return errors.New("-dir is required")
	}
	srv, err := chunk.NewChunkServer(*dir, *maxMB<<20)
	if err != nil {
		return err
	}
	ln, err := listen("tcp", *addr)
	if err != nil {
		return err
	}
	log.New(stderr, "", log.LstdFlags).Printf("morpheus-chunkd: serving shard %s on %s (max chunk %d MiB)", *dir, ln.Addr(), *maxMB)
	return http.Serve(ln, srv)
}
