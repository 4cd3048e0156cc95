package tcpnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"sync"
	"testing"
	"testing/iotest"
)

// readAll drains a stream through read until its first error and returns
// the frames that came before it.
func readAll(read func() ([]byte, error)) ([][]byte, error) {
	var frames [][]byte
	for {
		f, err := read()
		if err != nil {
			return frames, err
		}
		frames = append(frames, f)
	}
}

// sameStreamError reports whether two readers ended a stream the same way:
// identical io errors, or both ErrFrameTooLarge.
func sameStreamError(a, b error) bool {
	if errors.Is(a, ErrFrameTooLarge) || errors.Is(b, ErrFrameTooLarge) {
		return errors.Is(a, ErrFrameTooLarge) && errors.Is(b, ErrFrameTooLarge)
	}
	return a == b
}

// checkAgainstReadFrame holds the chunk reader to ReadFrame on one byte
// stream, delivered whole and one byte per Read: the same frames, then the
// same error.
func checkAgainstReadFrame(t *testing.T, stream []byte) {
	t.Helper()
	ref := bytes.NewReader(stream)
	want, wantErr := readAll(func() ([]byte, error) { return ReadFrame(ref) })
	for name, src := range map[string]io.Reader{
		"whole":    bytes.NewReader(stream),
		"one-byte": iotest.OneByteReader(bytes.NewReader(stream)),
		"data+err": iotest.DataErrReader(bytes.NewReader(stream)),
	} {
		got, gotErr := readAll(newChunkReader(src).next)
		if !sameStreamError(gotErr, wantErr) {
			t.Fatalf("%s: stream ended with %v, ReadFrame with %v", name, gotErr, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d frames, ReadFrame gives %d", name, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%s: frame %d differs from ReadFrame's (%d vs %d bytes)", name, i, len(got[i]), len(want[i]))
			}
			if cap(got[i]) != len(got[i]) {
				t.Fatalf("%s: frame %d has %d spare bytes of capacity over its neighbours", name, i, cap(got[i])-len(got[i]))
			}
		}
	}
}

// FuzzChunkReader is the differential fuzz of the read loops' frame reader
// against ReadFrame: any byte stream must split into the same frames and
// end with the same error (io.EOF at a boundary, io.ErrUnexpectedEOF on a
// torn prefix or body, ErrFrameTooLarge on a length of 0 or over MaxFrame).
func FuzzChunkReader(f *testing.F) {
	two := AppendFrame(AppendFrame(nil, []byte("x")), []byte("a longer second frame payload"))
	f.Add(two)
	f.Add(two[:2])                                     // torn prefix
	f.Add(two[:len(two)-3])                            // torn body
	f.Add(two[:frameHeaderLen])                        // torn between prefix and body
	f.Add(append(two[:len(two):len(two)], 0, 0, 0, 0)) // zero length
	f.Add(binary.BigEndian.AppendUint32(two[:len(two):len(two)], MaxFrame+1))
	f.Add(AppendFrame(AppendFrame(nil, bytes.Repeat([]byte{0xaa}, chunkSize-6)), []byte("straddles")))
	f.Add(AppendFrame(nil, bytes.Repeat([]byte{0x55}, chunkSize+1)))
	f.Fuzz(func(t *testing.T, stream []byte) {
		if len(stream) >= frameHeaderLen {
			if n := binary.BigEndian.Uint32(stream); n > 8*chunkSize && n <= MaxFrame {
				t.Skip("a torn multi-megabyte frame only costs both readers the same allocation")
			}
		}
		checkAgainstReadFrame(t, stream)
	})
}

// TestChunkReaderBoundaries walks frames of every awkward size across
// chunk boundaries: a frame straddling one (its received part is carried to
// the next chunk), a prefix split by one, a frame exactly a chunk long, and
// frames larger than a chunk (their own buffer) with small ones behind.
func TestChunkReaderBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	payload := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	for name, sizes := range map[string][]int{
		"straddle":      {chunkSize - 100, 300, 10},
		"split prefix":  {chunkSize - frameHeaderLen - 2, 50, 50},
		"exact chunk":   {chunkSize - frameHeaderLen, 1, chunkSize - frameHeaderLen, 1},
		"over a chunk":  {100, chunkSize - frameHeaderLen + 1, 100, 3 * chunkSize, 100},
		"many turnover": {9000, 9000, 9000, 9000, 9000, 9000, 9000, 9000, 9000, 9000},
	} {
		var stream []byte
		for _, n := range sizes {
			stream = AppendFrame(stream, payload(n))
		}
		t.Run(name, func(t *testing.T) { checkAgainstReadFrame(t, stream) })
	}
}

// TestChunkFramesSurviveTurnover pins the chunk rule — a chunk is never
// rewritten once a byte of it is handed out: frames held while the reader
// moves on through several more chunks stay byte-equal, and a goroutine
// re-reading them all the while never races with the reader filling chunk
// tails (run under -race).
func TestChunkFramesSurviveTurnover(t *testing.T) {
	const frameLen = 1000
	frames := 4*chunkSize/(frameLen+frameHeaderLen) + 1 // over three turnovers
	var stream []byte
	want := make([][]byte, frames)
	for i := range want {
		want[i] = bytes.Repeat([]byte{byte(i + 1)}, frameLen)
		stream = AppendFrame(stream, want[i])
	}
	held := make(chan []byte, frames) // every frame: the sender never blocks
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var got [][]byte
		for f := range held {
			got = append(got, f)
			for i, g := range got { // re-read everything held so far
				if !bytes.Equal(g, want[i]) {
					t.Errorf("frame %d changed after %d later frames were read", i, len(got)-1-i)
					return
				}
			}
		}
		if len(got) != frames {
			t.Errorf("held %d frames, want %d", len(got), frames)
		}
	}()
	// Small reads, so chunk tails are filled while earlier frames of the
	// same chunk are already held.
	cr := newChunkReader(iotest.HalfReader(bytes.NewReader(stream)))
	for {
		f, err := cr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		held <- f
	}
	close(held)
	wg.Wait()
}

// loopReader serves one wire image over and over, like a connection that
// never runs dry.
type loopReader struct {
	wire []byte
	off  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.wire[l.off:])
	l.off = (l.off + n) % len(l.wire)
	return n, nil
}

// TestChunkReaderAllocFree pins a read loop's heap cost at one object per
// chunk's worth of frames — the chunk itself; ReadFrame's payload-per-frame
// (what the read loops paid before) would read 128 here.
func TestChunkReaderAllocFree(t *testing.T) {
	const perChunk = 128
	wire := AppendFrame(nil, make([]byte, chunkSize/perChunk-frameHeaderLen))
	cr := newChunkReader(&loopReader{wire: wire})
	if got := testing.AllocsPerRun(20, func() {
		for i := 0; i < perChunk; i++ {
			if _, err := cr.next(); err != nil {
				t.Fatal(err)
			}
		}
	}); got > 1 {
		t.Errorf("%d frames filling one chunk cost %v allocs, want <= 1 (the chunk)", perChunk, got)
	}
}
