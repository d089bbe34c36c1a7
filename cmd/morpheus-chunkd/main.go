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
// colsums, sum, kmeans-assign-v2) over listed local chunks and streams back
// the encoded partials in request order, so only partials — not chunks —
// cross the wire; the driver remains the reducer, checks each partial's
// shape against the op, and results are bit-identical with an all-local
// pass. A chunk that fails to decode — a CSR header claiming more entries
// than its blob holds, say — is an in-band error frame, never a crash. An /exec request may name the
// codec its stored blobs are framed with (a store whose shards sit behind
// the compressing wrapper ships them compressed); this worker decodes them
// shard-side before the chunk decode, and answers 400 — a per-request
// error, not "no /exec" — for a codec it does not know.
// Uploads above -max-chunk-mb are
// rejected; writes are atomic (temp file + rename), so a client or server
// crash never leaves a truncated chunk readable.
//
// Run one chunkd shard per store: adopting a shard reaps whatever a
// previous (crashed) run left in it.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"

	"repro/internal/chunk"
)

func main() {
	var (
		addr  = flag.String("addr", ":9431", "listen address")
		dir   = flag.String("dir", "", "shard directory to serve (required)")
		maxMB = flag.Int64("max-chunk-mb", chunk.DefaultMaxChunkBytes>>20, "largest accepted chunk upload in MiB")
	)
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "morpheus-chunkd: -dir is required")
		os.Exit(2)
	}
	srv, err := chunk.NewChunkServer(*dir, *maxMB<<20)
	if err != nil {
		log.Fatalf("morpheus-chunkd: %v", err)
	}
	log.Printf("morpheus-chunkd: serving shard %s on %s (max chunk %d MiB; exec codecs: %s)", *dir, *addr, *maxMB, strings.Join(chunk.Codecs(), ", "))
	log.Fatal(http.ListenAndServe(*addr, srv))
}
