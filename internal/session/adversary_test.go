package session

// Adversary tests: the session layer against the harness's stale-epoch
// replayer — an attacker (or a zombie incarnation) that captures session
// traffic and re-sends it later, across epoch supersessions, and a forger
// sending hellos that were never produced by the claimed sender. The
// defences under test: stale-epoch hellos and frames are rejected (a
// replayed hello must not rewind the delivery watermark), forged hellos
// are refused statelessly before any per-sender state exists, and replays
// are accounted exactly once (duplicates and losses must not inflate under
// repeated delivery of the same capture).

import (
	"encoding/binary"
	"errors"
	"testing"

	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/types"
)

// TestReplayedHelloCannotRewindWatermark captures a dead incarnation's
// hello and replays it after a successor superseded the epoch: every
// replay is rejected as stale and counted, and the successor's delivery
// watermark survives untouched.
func TestReplayedHelloCannotRewindWatermark(t *testing.T) {
	cfg := &Config{Keys: crypto.NewLinkKeys([]byte("m"))}
	old := cfg.NewSender(1, 2)
	rx := cfg.NewReceiver(2, 1)
	capturedHello := old.Hello()
	if err := rx.VerifyHello(capturedHello); err != nil {
		t.Fatal(err)
	}
	capturedFrame := old.Seal([]byte("captured")).Append(nil)
	if _, err := rx.Open(capturedFrame); err != nil {
		t.Fatal(err)
	}

	// Restart: the successor supersedes the epoch and delivers traffic.
	fresh := cfg.NewSender(1, 2)
	if err := rx.VerifyHello(fresh.Hello()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := rx.Open(fresh.Seal([]byte("live")).Append(nil)); err != nil {
			t.Fatal(err)
		}
	}
	before := rx.Stats()

	// The replayer fires the captured handshake and frame, repeatedly.
	const replays = 5
	for i := 0; i < replays; i++ {
		if err := rx.VerifyHello(capturedHello); !errors.Is(err, ErrStaleEpoch) {
			t.Fatalf("replayed stale hello: err=%v, want ErrStaleEpoch", err)
		}
		if body, err := rx.Open(capturedFrame); err == nil {
			t.Fatalf("replayed stale-epoch frame delivered: %q", body)
		}
	}

	after := rx.Stats()
	if after.Delivered != before.Delivered {
		t.Errorf("delivery watermark moved under replay: %d -> %d", before.Delivered, after.Delivered)
	}
	if got, want := after.Rejected-before.Rejected, uint64(2*replays); got != want {
		t.Errorf("rejected grew by %d, want %d (each stale hello and frame counted)", got, want)
	}
	// The live direction is unharmed.
	if body, err := rx.Open(fresh.Seal([]byte("still-live")).Append(nil)); err != nil || string(body) != "still-live" {
		t.Fatalf("live frame after replay storm: %q, %v", body, err)
	}
}

// TestReplayedFramesAccountedOnceEach re-delivers a capture of
// already-delivered current-epoch frames: each copy is dropped silently as
// a duplicate (nil body, no error — the connection survives), duplicates
// count one per replayed frame, and the watermark never moves backwards.
func TestReplayedFramesAccountedOnceEach(t *testing.T) {
	tx, rx := pair(t, 0)
	capture := make([][]byte, 0, 4)
	for i := 0; i < 4; i++ {
		wire := tx.Seal([]byte{byte(i)}).Append(nil)
		capture = append(capture, wire)
		if _, err := rx.Open(wire); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 3
	for round := 0; round < rounds; round++ {
		for _, wire := range capture {
			body, err := rx.Open(wire)
			if err != nil {
				t.Fatalf("replayed duplicate errored (would drop the live connection): %v", err)
			}
			if body != nil {
				t.Fatalf("replayed duplicate delivered: %q", body)
			}
		}
	}
	st := rx.Stats()
	if want := uint64(rounds * len(capture)); st.Duplicates != want {
		t.Errorf("Duplicates = %d, want %d", st.Duplicates, want)
	}
	if st.Delivered != 4 {
		t.Errorf("Delivered = %d, want 4", st.Delivered)
	}
	if st.Gaps != 0 || st.Rejected != 0 {
		t.Errorf("replay of genuine frames moved other counters: %+v", st)
	}
}

// TestForgedHelloRejectedStatelessly drives forged hello shapes through
// CheckHello, the pre-state gate a transport runs before allocating any
// per-sender Receiver: every forgery must be refused there, so an attacker
// spraying hellos for arbitrary claimed senders cannot grow per-sender
// maps.
func TestForgedHelloRejectedStatelessly(t *testing.T) {
	cfg := &Config{Keys: crypto.NewLinkKeys([]byte("m"))}
	genuine := cfg.NewSender(1, 2).Hello()
	if err := cfg.CheckHello(2, genuine); err != nil {
		t.Fatalf("genuine hello rejected: %v", err)
	}

	flip := func(i int) []byte {
		b := append([]byte(nil), genuine...)
		b[i] ^= 0x01
		return b
	}
	inflateEpoch := func() []byte {
		// The stale-replayer defence must not be escapable by editing the
		// epoch field of a captured hello: the MAC covers it.
		b := append([]byte(nil), genuine...)
		binary.BigEndian.PutUint64(b[10:], binary.BigEndian.Uint64(b[10:])+1<<30)
		return b
	}
	otherKeys := &Config{Keys: crypto.NewLinkKeys([]byte("other-deployment"))}

	cases := []struct {
		name  string
		hello []byte
		want  error
	}{
		{name: "tampered MAC", hello: flip(HelloLen - 1), want: ErrBadMAC},
		{name: "tampered claimed sender", hello: flip(2), want: ErrBadMAC},
		{name: "tampered epoch", hello: inflateEpoch(), want: ErrBadMAC},
		{name: "foreign deployment's key", hello: otherKeys.NewSender(1, 2).Hello(), want: ErrBadMAC},
		{name: "truncated", hello: genuine[:HelloLen-1], want: ErrMalformed},
		{name: "wrong endpoint", hello: genuine, want: ErrMalformed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			self := types.NodeID(2)
			if tc.name == "wrong endpoint" {
				self = 3
			}
			err := cfg.CheckHello(self, tc.hello)
			if !errors.Is(err, tc.want) {
				t.Fatalf("CheckHello = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestReplayedAckLossCountedOnce replays a captured hello-ack against the
// sender: each replay recomputes the same replay window, but frames lost
// beyond the ring are charged to the loss counters exactly once however
// often the capture is re-delivered.
func TestReplayedAckLossCountedOnce(t *testing.T) {
	tx, rx := pair(t, 4)
	for i := 1; i <= 10; i++ {
		tx.Seal([]byte{byte(i)}) // ring holds 7..10; 1..6 evicted undelivered
	}
	capturedAck := rx.Ack()
	replayLens := make([]int, 0, 3)
	var firstLost uint64
	for i := 0; i < 3; i++ {
		replay, lost, err := tx.HandleAck(capturedAck)
		if err != nil {
			t.Fatalf("replayed ack round %d: %v", i, err)
		}
		replayLens = append(replayLens, len(replay))
		if i == 0 {
			firstLost = lost
		} else if lost != 0 {
			t.Fatalf("round %d charged %d newly lost frames for the same watermark", i, lost)
		}
	}
	if firstLost != 6 {
		t.Errorf("first handshake lost = %d, want 6", firstLost)
	}
	for i, n := range replayLens {
		if n != 4 {
			t.Errorf("round %d replayed %d frames, want 4 (ring content)", i, n)
		}
	}
	if st := tx.Stats(); st.Lost != 6 {
		t.Errorf("total Lost = %d, want 6 (replayed ack double-charged)", st.Lost)
	}
}
