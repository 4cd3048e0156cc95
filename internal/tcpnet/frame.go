package tcpnet

import (
	"encoding/binary"
	"fmt"
	"io"
)

// MaxFrame bounds a single wire message (16 MiB, matching codec.MaxBytes).
const MaxFrame = 16 << 20

// frameHeaderLen is the length-prefix size.
const frameHeaderLen = 4

// chunkSize sizes a read loop's receive chunks: large enough that a commit
// wave of 1 KB batches plus signatures is absorbed in one read syscall.
const chunkSize = 32 << 10

// ErrFrameTooLarge is returned for frames exceeding MaxFrame and for empty
// frames (a zero length prefix is never produced by a well-behaved peer).
var ErrFrameTooLarge = fmt.Errorf("tcpnet: frame length outside (0, %d]", MaxFrame)

// putFrameHeader writes the length prefix for a payload of n bytes into
// hdr.
func putFrameHeader(hdr []byte, n int) {
	binary.BigEndian.PutUint32(hdr[:frameHeaderLen], uint32(n))
}

// frameLen decodes and range-checks a length prefix.
func frameLen(hdr []byte) (int, error) {
	n := binary.BigEndian.Uint32(hdr)
	if n == 0 || n > MaxFrame {
		return 0, fmt.Errorf("%w: got %d", ErrFrameTooLarge, n)
	}
	return int(n), nil
}

// AppendFrame appends the complete wire frame (length prefix + payload) to
// dst and returns the extended slice. It is the reference encoder the fuzz
// tests hold the readers against; the hot path gathers header and payload
// with writev instead of copying through it.
func AppendFrame(dst, payload []byte) []byte {
	var hdr [frameHeaderLen]byte
	putFrameHeader(hdr[:], len(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// ReadFrame reads one length-prefixed frame from r into a freshly
// allocated payload. The session handshake reads its single ack with it,
// straight off the conn; it is also the reference the chunk reader — what
// every read loop uses — is fuzzed against.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n, err := frameLen(hdr[:])
	if err != nil {
		return nil, err
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the stream ended between prefix and body
		}
		return nil, err
	}
	return payload, nil
}

// chunkReader carves the frames of one inbound connection out of fixed
// chunkSize receive chunks: the connection is read straight into the
// current chunk and each frame is handed out as a capacity-capped
// sub-slice of it, so a frame costs no allocation and no copy. Handed-out
// frames are owned by their receivers (message.Decode aliases them), which
// fixes the chunk rule: a chunk is never rewritten once a byte of it is
// handed out — only its unwritten tail is still filled — and it lives as
// long as the longest-lived message decoded from it. When the frame being
// received cannot be completed in the tail, its received part (the only
// bytes ever copied) moves to a fresh chunk; a frame larger than a chunk
// gets a buffer of its own.
type chunkReader struct {
	r     io.Reader
	chunk []byte
	rd, w int   // chunk[rd:w] is received and not yet handed out
	err   error // the read error, held back until chunk[rd:w] is spent
}

func newChunkReader(r io.Reader) *chunkReader {
	return &chunkReader{r: r, chunk: make([]byte, chunkSize)}
}

// next returns the next frame's payload, with ReadFrame's errors: io.EOF
// at a frame boundary, io.ErrUnexpectedEOF inside a frame,
// ErrFrameTooLarge for a length outside (0, MaxFrame].
func (c *chunkReader) next() ([]byte, error) {
	need := frameHeaderLen // bytes of the current frame wanted in the chunk
	for {
		if c.w-c.rd >= need {
			if need > frameHeaderLen {
				frame := c.chunk[c.rd+frameHeaderLen : c.rd+need : c.rd+need]
				c.rd += need
				return frame, nil
			}
			n, err := frameLen(c.chunk[c.rd:])
			if err != nil {
				return nil, err
			}
			if need += n; need > chunkSize {
				return c.oversized(n)
			}
			continue
		}
		if c.err != nil {
			if c.err == io.EOF && c.w > c.rd {
				return nil, io.ErrUnexpectedEOF
			}
			return nil, c.err
		}
		if c.rd+need > len(c.chunk) {
			fresh := make([]byte, chunkSize)
			c.w = copy(fresh, c.chunk[c.rd:c.w])
			c.chunk, c.rd = fresh, 0
		}
		n, err := c.r.Read(c.chunk[c.w:])
		c.w += n
		c.err = err
	}
}

// oversized reads a frame too large for any chunk into its own buffer: the
// part already received is copied out of the chunk, the rest is read from
// the connection directly.
func (c *chunkReader) oversized(n int) ([]byte, error) {
	frame := make([]byte, n)
	got := copy(frame, c.chunk[c.rd+frameHeaderLen:c.w])
	c.rd = c.w
	if c.err == nil {
		var m int
		m, c.err = io.ReadFull(c.r, frame[got:])
		got += m
	}
	if got < n {
		if c.err == io.EOF {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, c.err
	}
	return frame, nil
}
