package tcpnet

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// MaxFrame bounds a single wire message (16 MiB, matching codec.MaxBytes).
const MaxFrame = 16 << 20

// frameHeaderLen is the length-prefix size.
const frameHeaderLen = 4

// readerBufSize sizes pooled inbound readers: large enough that a commit
// wave of 1 KB batches plus signatures is absorbed in one read syscall.
const readerBufSize = 64 << 10

// ErrFrameTooLarge is returned for frames exceeding MaxFrame and for empty
// frames (a zero length prefix is never produced by a well-behaved peer).
var ErrFrameTooLarge = fmt.Errorf("tcpnet: frame length outside (0, %d]", MaxFrame)

// putFrameHeader writes the length prefix for a payload of n bytes into
// hdr.
func putFrameHeader(hdr []byte, n int) {
	binary.BigEndian.PutUint32(hdr[:frameHeaderLen], uint32(n))
}

// AppendFrame appends the complete wire frame (length prefix + payload) to
// dst and returns the extended slice. It is the reference encoder the fuzz
// test holds ReadFrame against; the hot path gathers header and payload
// with writev instead of copying through it.
func AppendFrame(dst, payload []byte) []byte {
	var hdr [frameHeaderLen]byte
	putFrameHeader(hdr[:], len(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// ReadFrame reads one length-prefixed frame from r (the read loops pass a
// pooled bufio.Reader; the session handshake reads its single ack straight
// off the conn). The payload is freshly allocated: callers hand it to
// message.Decode, which aliases it, so frame buffers must not be pooled or
// reused.
func ReadFrame(r io.Reader) ([]byte, error) {
	n, err := readFrameLen(r)
	if err != nil {
		return nil, err
	}
	if n == 0 || n > MaxFrame {
		return nil, fmt.Errorf("%w: got %d", ErrFrameTooLarge, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// readFrameLen consumes the length prefix. A header array handed to an
// io.Reader escapes — one heap object per frame — so through a
// bufio.Reader (every read loop) the prefix is decoded in the reader's own
// buffer instead. Errors are io.ReadFull's either way.
func readFrameLen(r io.Reader) (uint32, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		var hdr [frameHeaderLen]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return 0, err
		}
		return binary.BigEndian.Uint32(hdr[:]), nil
	}
	hdr, err := br.Peek(frameHeaderLen)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF // the stream ended inside the prefix
		}
		return 0, err
	}
	n := binary.BigEndian.Uint32(hdr)
	_, _ = br.Discard(frameHeaderLen) // cannot fail: Peek buffered the bytes
	return n, nil
}

// readerPool recycles inbound bufio readers across connections.
var readerPool = sync.Pool{
	New: func() any { return bufio.NewReaderSize(nil, readerBufSize) },
}

func getReader(r io.Reader) *bufio.Reader {
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(r)
	return br
}

func putReader(br *bufio.Reader) {
	br.Reset(nil) // drop the conn reference while pooled
	readerPool.Put(br)
}
