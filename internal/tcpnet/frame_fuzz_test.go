package tcpnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// FuzzFrameRoundTrip checks that any payload written as a frame is read
// back intact, and that consecutive frames on one stream stay delimited.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add([]byte("x"), []byte("a longer second frame payload"))
	f.Add([]byte{0}, []byte{0xff, 0x00, 0xff})
	f.Add(bytes.Repeat([]byte{0xaa}, 4096), []byte("tail"))
	f.Fuzz(func(t *testing.T, p1, p2 []byte) {
		if len(p1) == 0 || len(p2) == 0 || len(p1) > MaxFrame || len(p2) > MaxFrame {
			t.Skip("frames must be in (0, MaxFrame]")
		}
		var wire []byte
		wire = AppendFrame(wire, p1)
		wire = AppendFrame(wire, p2)
		br := bufio.NewReader(bytes.NewReader(wire))
		got1, err := ReadFrame(br)
		if err != nil {
			t.Fatalf("frame 1: %v", err)
		}
		got2, err := ReadFrame(br)
		if err != nil {
			t.Fatalf("frame 2: %v", err)
		}
		if !bytes.Equal(got1, p1) || !bytes.Equal(got2, p2) {
			t.Fatalf("round-trip mismatch: %d/%d bytes vs %d/%d", len(got1), len(got2), len(p1), len(p2))
		}
		if _, err := ReadFrame(br); err != io.EOF {
			t.Fatalf("trailing bytes after two frames: %v", err)
		}
	})
}

// TestReadFrameRejectsBadLengths covers the length-prefix guard rails:
// zero-length and oversized frames are refused before any allocation.
func TestReadFrameRejectsBadLengths(t *testing.T) {
	for _, n := range []uint32{0, MaxFrame + 1, 1 << 31} {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], n)
		_, err := ReadFrame(bufio.NewReader(bytes.NewReader(hdr[:])))
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Errorf("length %d: got %v, want ErrFrameTooLarge", n, err)
		}
	}
}

// TestReadFrameShortPayload checks truncated streams fail cleanly: a
// stream that ends anywhere inside a body — including right after the
// prefix — is torn, never a clean io.EOF.
func TestReadFrameShortPayload(t *testing.T) {
	wire := AppendFrame(nil, []byte("hello"))
	for _, cut := range []int{len(wire) - 2, frameHeaderLen} {
		if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(wire[:cut]))); err != io.ErrUnexpectedEOF {
			t.Errorf("frame cut to %d bytes: %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

// TestReadFrameTornPrefix holds the chunk reader to ReadFrame on a stream
// that ends early: the same errors for an empty and a torn prefix (read
// loops tell a clean close from a broken stream by io.EOF).
func TestReadFrameTornPrefix(t *testing.T) {
	wire := AppendFrame(nil, []byte("hello"))
	for cut, want := range map[int]error{0: io.EOF, 2: io.ErrUnexpectedEOF} {
		if _, err := ReadFrame(bytes.NewReader(wire[:cut])); err != want {
			t.Errorf("ReadFrame, %d prefix bytes: %v, want %v", cut, err, want)
		}
		if _, err := newChunkReader(bytes.NewReader(wire[:cut])).next(); err != want {
			t.Errorf("chunk reader, %d prefix bytes: %v, want %v", cut, err, want)
		}
	}
}
