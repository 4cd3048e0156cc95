package message

import (
	"runtime"
	"strings"
	"testing"

	"github.com/sof-repro/sof/internal/codec"
	"github.com/sof-repro/sof/internal/types"
)

// TestDecodeAllocationBoundedByFrame feeds the two entry-list decoders a
// header whose 4-byte count claims 2^20 entries and nothing after it. The
// frame is refused either way; what matters is that refusing it does not
// first allocate room for entries the frame cannot hold (40 MiB before the
// count was bounded by the unread input) — this runs before any signature
// check, for any peer that can reach the port.
func TestDecodeAllocationBoundedByFrame(t *testing.T) {
	batch := codec.NewWriter(64)
	batch.U8(uint8(TOrderBatch))
	batch.U32(1)
	batch.U64(1)
	batch.U64(1)
	batch.I32(0)
	batch.I32(5)
	batch.U32(1 << 20)
	prePrepare := codec.NewWriter(64)
	prePrepare.U8(uint8(TPrePrepare))
	prePrepare.U64(1)
	prePrepare.U64(1)
	prePrepare.I32(0)
	prePrepare.U32(1 << 20)
	for _, frame := range [][]byte{batch.Bytes(), prePrepare.Bytes()} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode(frame)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%v: a %d-byte frame claiming 2^20 entries decoded", Type(frame[0]), len(frame))
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<10 {
			t.Errorf("%v: refusing a %d-byte frame allocated %d bytes", Type(frame[0]), len(frame), got)
		}
	}
}

// TestNestedKindIsStrict: a well-formed message of the wrong kind in a
// nested slot fails the decode everywhere. Unwilling used to drop it
// silently, yielding a message that re-encoded to different bytes than it
// was decoded (and verified) from.
func TestNestedKindIsStrict(t *testing.T) {
	ack := samples()[TAck].Marshal()
	w := codec.NewWriter(256)
	w.U8(uint8(TUnwilling))
	w.I32(1)
	w.U64(3)
	w.Bool(true)
	w.Bytes32(ack)
	w.Bytes32(fixedSig(0x71))
	if m, err := Decode(w.Bytes()); err == nil {
		t.Fatalf("Unwilling wrapping an Ack decoded: %+v", m)
	} else if !strings.Contains(err.Error(), "Ack") {
		t.Errorf("error does not name the offending kind: %v", err)
	}
}

// TestRejectedRefusesOverflowingRetryAfter: a RetryAfter of 2^63 ns or more
// does not fit a time.Duration; decoding it used to produce a negative
// back-off hint that re-encoded as zero.
func TestRejectedRefusesOverflowingRetryAfter(t *testing.T) {
	wire := samples()[TRejected].Marshal()
	const retryAt = 1 + 4 + 4 + 8 + 1 // tag, From, Client, ClientSeq, Code
	wire[retryAt] |= 0x80
	if m, err := Decode(wire); err == nil {
		t.Fatalf("decoded RetryAfter %v from a wire value >= 2^63", m.(*Rejected).RetryAfter)
	}
}

// raceEnabled is set by race_test.go: under the race detector sync.Pool
// drops a share of what is put back, so pooled paths allocate at random.
var raceEnabled bool

// TestAllocationFloors pins what the shared driver may cost: encoding goes
// through pooled buffers plus one exact-size copy, decoding allocates the
// message (an OrderBatch's entries inside it) and nothing else, and a
// decoded message's signed body is the received bytes.
func TestAllocationFloors(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation floors do not hold under the race detector")
	}
	const runs = 100
	all := samples()
	entries := make([]OrderEntry, 5)
	for i := range entries {
		entries[i] = OrderEntry{Req: ReqID{Client: types.ClientID(0), ClientSeq: uint64(i)}, ReqDigest: fixedSig(0xD1)}
	}
	for _, c := range []struct {
		typ    Type
		fresh  func() Message
		decode float64 // the message
	}{
		{TRequest, func() Message {
			return &Request{Client: types.ClientID(0), ClientSeq: 1, Payload: make([]byte, 128), Sig: fixedSig(1)}
		}, 1},
		{TOrderBatch, func() Message {
			return &OrderBatch{Coord: 1, View: 1, FirstSeq: 1, Entries: entries, Shadow: 5, Sig1: fixedSig(1), Sig2: fixedSig(2)}
		}, 1},
		{TAck, func() Message {
			return &Ack{From: 2, Kind: SubjectBatch, View: 1, FirstSeq: 1, SubjectDigest: fixedSig(0xD1), Sig: fixedSig(3)}
		}, 1},
	} {
		// Messages are built outside the measured function: they live on
		// the heap in every real caller (they cross goroutines), and their
		// own allocation is not Marshal's.
		msgs := make([]Message, runs+1)
		for i := range msgs {
			msgs[i] = c.fresh()
		}
		next := 0
		if got := testing.AllocsPerRun(runs, func() { msgs[next].Marshal(); next++ }); got > 1 {
			t.Errorf("Marshal(fresh %v) = %v allocs, want <= 1 (the exact-size copy)", c.typ, got)
		}
		wire := all[c.typ].Marshal()
		if got := testing.AllocsPerRun(runs, func() { msgs[0], _ = Decode(wire) }); got > c.decode {
			t.Errorf("Decode(%v) = %v allocs, want <= %v", c.typ, got, c.decode)
		}
		for i := range msgs {
			msgs[i], _ = Decode(wire)
		}
		next = 0
		signedBody := func() { msgs[next].(interface{ SignedBody() []byte }).SignedBody(); next++ }
		if got := testing.AllocsPerRun(runs, signedBody); got != 0 {
			t.Errorf("SignedBody(just-decoded %v) = %v allocs, want 0", c.typ, got)
		}
	}
}
