package chunk

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Chunk kinds on the /exec wire: how the worker should decode the raw
// chunk bytes it holds.
const (
	chunkKindDense = "dense"
	chunkKindCSR   = "csr"
)

// ExecChunk names one locally held chunk in an /exec request. Rows is the
// chunk's row count, needed to decode the stored bytes.
type ExecChunk struct {
	Key  string `json:"key"`
	Rows int    `json:"rows"`
}

// execRequest is the POST /exec body. Params is base64 via encoding/json's
// []byte convention.
type execRequest struct {
	Op     string      `json:"op"`
	Params []byte      `json:"params,omitempty"`
	Kind   string      `json:"kind"`
	Cols   int         `json:"cols"`
	Chunks []ExecChunk `json:"chunks"`
}

// The /exec response is a stream of length-prefixed frames, flushed per
// frame so the client sees partials as they complete:
//
//	0x00 uint64-LE length, then that many bytes of encoded partial
//	0x01 uint64-LE length, then a UTF-8 error message (terminates stream)
//	0x02 end of stream (success; one per response, nothing follows)
//
// Partial frames arrive in request order. A response that ends without an
// 0x01 or 0x02 frame was cut mid-stream, and the client reports it as such
// rather than treating the prefix as complete.
const (
	framePartial = 0x00
	frameError   = 0x01
	frameEnd     = 0x02
)

// maxPartialBytes bounds a single decoded partial frame (sanity cap
// against a corrupt or hostile length prefix).
const maxPartialBytes = 1 << 30

// ExecBackend is the worker capability: a shard backend that can run a
// registered op over chunks it holds and stream back the encoded partials
// in request order. The pipeline probes for it with a type assertion and
// falls back to ReadChunk + local map when it is absent or fails.
type ExecBackend interface {
	Backend
	// ExecOp starts the op over the given chunks. The returned stream
	// yields one encoded partial per chunk, in request order, until ctx is
	// canceled: then a Next blocked on the shard returns an error. A server
	// without /exec (or without the op) returns ErrExecUnsupported.
	ExecOp(ctx context.Context, op Op, kind string, cols int, chunks []ExecChunk) (*PartialStream, error)
}

// ErrExecUnsupported reports a shard that stores chunks but cannot execute
// ops on them (older chunkd, or op not in its registry).
var ErrExecUnsupported = errors.New("chunk: exec not supported by backend")

// PartialStream iterates the partial frames of one /exec response.
type PartialStream struct {
	r    *bufio.Reader
	body io.Closer
	done bool
}

func newPartialStream(body io.ReadCloser) *PartialStream {
	return &PartialStream{r: bufio.NewReader(body), body: body}
}

// Next returns the next encoded partial, io.EOF after the end frame, or a
// descriptive error for an error frame, a mid-stream cut, or a corrupt
// frame. After any non-nil error the stream is exhausted.
func (ps *PartialStream) Next() ([]byte, error) {
	if ps.done {
		return nil, io.EOF
	}
	tag, err := ps.r.ReadByte()
	if err != nil {
		ps.done = true
		return nil, fmt.Errorf("chunk: exec stream cut before end frame: %w", err)
	}
	switch tag {
	case frameEnd:
		ps.done = true
		return nil, io.EOF
	case framePartial, frameError:
		var lenBuf [8]byte
		if _, err := io.ReadFull(ps.r, lenBuf[:]); err != nil {
			ps.done = true
			return nil, fmt.Errorf("chunk: exec stream cut in frame header: %w", err)
		}
		n := binary.LittleEndian.Uint64(lenBuf[:])
		if n > maxPartialBytes {
			ps.done = true
			return nil, fmt.Errorf("chunk: exec frame of %d bytes exceeds cap", n)
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(ps.r, payload); err != nil {
			ps.done = true
			return nil, fmt.Errorf("chunk: exec stream cut in frame payload: %w", err)
		}
		if tag == frameError {
			ps.done = true
			return nil, fmt.Errorf("chunk: exec worker error: %s", payload)
		}
		return payload, nil
	default:
		ps.done = true
		return nil, fmt.Errorf("chunk: exec stream: unknown frame tag 0x%02x", tag)
	}
}

// Close releases the underlying response body. Always call it when done
// with the stream, and never while another goroutine is inside Next (to
// end a blocked Next, cancel the context ExecOp was given).
func (ps *PartialStream) Close() error {
	ps.done = true
	return ps.body.Close()
}

func writePartialFrame(w io.Writer, payload []byte) error {
	var hdr [9]byte
	hdr[0] = framePartial
	binary.LittleEndian.PutUint64(hdr[1:], uint64(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func writeErrorFrame(w io.Writer, msg string) error {
	var hdr [9]byte
	hdr[0] = frameError
	binary.LittleEndian.PutUint64(hdr[1:], uint64(len(msg)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := io.WriteString(w, msg)
	return err
}

func writeEndFrame(w io.Writer) error {
	_, err := w.Write([]byte{frameEnd})
	return err
}
