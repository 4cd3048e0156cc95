package session

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/types"
)

// noJournal fails the test if anything reaches for per-direction state:
// building a Sender or Receiver recovers from the journal first.
type noJournal struct{ t *testing.T }

func (j noJournal) RecoverSender(self, peer types.NodeID) (SenderState, bool) {
	j.t.Errorf("sender state built for %v->%v", self, peer)
	return SenderState{}, false
}

func (j noJournal) RecoverReceiver(from, self types.NodeID) (ReceiverState, bool) {
	j.t.Errorf("receiver state built for %v->%v", from, self)
	return ReceiverState{}, false
}

func (noJournal) SealedFrame(_, _ types.NodeID, _ Frame)    {}
func (noJournal) Acked(_, _ types.NodeID, _, _ uint64)      {}
func (noJournal) Delivered(_, _ types.NodeID, _, _ uint64)  {}
func (noJournal) PendingReplay(types.NodeID) []types.NodeID { return nil }

// cachedDirs is how many per-direction keys lk has memoized. The cache is
// crypto's private business; the fuzz target only needs its size.
func cachedDirs(lk *crypto.LinkKeys) int {
	return reflect.ValueOf(lk).Elem().FieldByName("dirs").Len()
}

// FuzzHello feeds arbitrary bytes to the hello path a listener runs before
// it has authenticated anybody — ParseHello, then Config.CheckHello. It
// must never panic, must agree with itself (what ParseHello refuses,
// CheckHello refuses as malformed; what CheckHello accepts, the direction's
// Receiver accepts too), and must stay stateless: no Sender or Receiver is
// built and the link-key cache does not grow, whatever sender the bytes
// claim.
func FuzzHello(f *testing.F) {
	const self = types.NodeID(2)
	master := []byte("fuzz-master")
	valid := (&Config{Keys: crypto.NewLinkKeys(master)}).NewSender(1, self).Hello()
	f.Add(valid)
	f.Add(binary.BigEndian.AppendUint32(nil, 1)) // a bare 4-byte NodeID hello
	f.Add(valid[:HelloLen-7])
	f.Fuzz(func(t *testing.T, p []byte) {
		keys := crypto.NewLinkKeys(master)
		cfg := &Config{Keys: keys, Journal: noJournal{t}}
		from, to, parseErr := ParseHello(p)
		checkErr := cfg.CheckHello(self, p)
		if n := cachedDirs(keys); n != 0 {
			t.Fatalf("an unauthenticated hello left %d link keys cached", n)
		}
		switch {
		case parseErr != nil:
			if !errors.Is(parseErr, ErrMalformed) || !errors.Is(checkErr, ErrMalformed) {
				t.Fatalf("ParseHello = %v but CheckHello = %v", parseErr, checkErr)
			}
		case len(p) != HelloLen:
			t.Fatalf("ParseHello accepted %d bytes, a hello is %d", len(p), HelloLen)
		case to != self:
			if !errors.Is(checkErr, ErrMalformed) {
				t.Fatalf("hello for %v passed at %v: %v", to, self, checkErr)
			}
		default:
			// Authenticated or not, the stateful verifier must agree.
			rx := (&Config{Keys: keys}).NewReceiver(self, from)
			if verifyErr := rx.VerifyHello(p); (verifyErr == nil) != (checkErr == nil) {
				t.Fatalf("CheckHello = %v but VerifyHello = %v", checkErr, verifyErr)
			}
		}
	})
}

// withMAC returns p followed by its HMAC-SHA256 under key: a trailer that
// verifies, whatever p's header says.
func withMAC(key, p []byte) []byte {
	m := hmac.New(sha256.New, key)
	m.Write(p)
	return m.Sum(append([]byte(nil), p...))
}

// macVerifies reports whether q's trailer is the HMAC-SHA256 of the rest
// of q under key.
func macVerifies(key, q []byte) bool {
	if len(q) < MACLen {
		return false
	}
	m := hmac.New(sha256.New, key)
	m.Write(q[:len(q)-MACLen])
	return hmac.Equal(m.Sum(nil), q[len(q)-MACLen:])
}

// FuzzSessionFrame feeds arbitrary bytes to the two parsers that run once
// a direction has handshaken: Receiver.Open on every inbound data frame
// and Sender.HandleAck on the hello-ack, part-way through a stream that
// has sealed past its ring. Each input goes in as given; then, when
// asked, with the live epoch written into its header, so the delivery
// check behind the MAC sees arbitrary sequence numbers; then with a
// trailer MAC'd under the reverse direction's key appended; then with one
// under the right direction key. Nothing may panic; Open returns a body
// only for a trailer that verifies under K(1->2); the delivery watermark
// never moves back; and no replay holds more frames than the ring, or
// holds them out of order.
func FuzzSessionFrame(f *testing.F) {
	const ringLen = 8
	master := []byte("fuzz-master")
	valid := (&Config{Keys: crypto.NewLinkKeys(master)}).NewSender(1, 2).Seal([]byte("body")).Append(nil)
	f.Add(valid, uint8(0), false, []byte(nil))
	// An ack's fuzzed bytes are its epoch, then its delivery watermark.
	f.Add(valid[:HeaderLen+3], uint8(12), true, binary.BigEndian.AppendUint64(make([]byte, 8), 3))
	f.Add(binary.BigEndian.AppendUint64(make([]byte, 10), 1<<40), uint8(31), true, binary.BigEndian.AppendUint64(make([]byte, 8), 30))
	f.Add([]byte{Version, kindData}, uint8(5), false, make([]byte, AckLen))
	f.Fuzz(func(t *testing.T, p []byte, sealed uint8, liveEpoch bool, ack []byte) {
		keys := crypto.NewLinkKeys(master)
		cfg := &Config{Keys: keys, RingLen: ringLen}
		tx, rx := cfg.NewSender(1, 2), cfg.NewReceiver(2, 1)
		if err := rx.VerifyHello(tx.Hello()); err != nil {
			t.Fatal(err)
		}
		n := int(sealed % 32)
		for i := 1; i <= n; i++ {
			fr := tx.Seal([]byte(fmt.Sprint(i)))
			if i <= n/2 {
				if _, err := rx.Open(fr.Append(nil)); err != nil {
					t.Fatal(err)
				}
			}
		}
		fwd, rev := keys.DirKeyUncached(1, 2), keys.DirKeyUncached(2, 1)

		open := func(q []byte) {
			before := rx.Stats().Delivered
			body, err := rx.Open(q)
			if after := rx.Stats().Delivered; after < before {
				t.Fatalf("delivery watermark moved back from %d to %d", before, after)
			}
			if body == nil {
				return
			}
			if err != nil {
				t.Fatalf("Open returned a body and %v", err)
			}
			if !macVerifies(fwd, q) {
				t.Fatalf("Open delivered a %d-byte frame whose MAC does not verify under K(1->2)", len(q))
			}
		}
		open(p)
		hdr := append([]byte(nil), p...)
		if liveEpoch && len(hdr) >= HeaderLen {
			hdr[0], hdr[1] = Version, kindData
			binary.BigEndian.PutUint64(hdr[2:], tx.epoch)
		}
		open(hdr)
		open(withMAC(rev, hdr))
		open(withMAC(fwd, hdr))

		handle := func(q []byte) {
			replay, _, err := tx.HandleAck(q)
			if err != nil && replay != nil {
				t.Fatalf("HandleAck returned a replay of %d frames and %v", len(replay), err)
			}
			if len(replay) > ringLen {
				t.Fatalf("a replay of %d frames from a ring of %d", len(replay), ringLen)
			}
			for i := 1; i < len(replay); i++ {
				if replay[i].Seq != replay[i-1].Seq+1 {
					t.Fatalf("replay out of order: seq %d after %d", replay[i].Seq, replay[i-1].Seq)
				}
			}
		}
		handle(ack)
		a := make([]byte, AckLen-MACLen)
		copy(a[10:], ack)
		a[0], a[1] = Version, kindAck
		putID(a[2:], 2)
		putID(a[6:], 1)
		if liveEpoch {
			binary.BigEndian.PutUint64(a[10:], tx.epoch)
		}
		handle(withMAC(rev, a))
		handle(withMAC(fwd, a))
	})
}
