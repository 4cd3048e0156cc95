package session

import (
	"encoding/binary"
	"errors"
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
	f.Add(binary.BigEndian.AppendUint32(nil, 1)) // a bare v1 hello
	f.Add(valid[:HelloLen-7])
	f.Fuzz(func(t *testing.T, p []byte) {
		keys := crypto.NewLinkKeys(master)
		cfg := &Config{Keys: keys, Resume: true, Journal: noJournal{t}}
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
