package message

import (
	"bytes"
	"sync"
	"testing"
	"unsafe"

	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/types"
)

// arenaSigner is a signer with an event loop's scratch and wire arenas, as
// the runtime Envs are.
type arenaSigner struct {
	scratchSigner
	arenas Arenas
}

func (s *arenaSigner) WireArenas() *Arenas { return &s.arenas }

func newArenaSigner(id *crypto.Identity) *arenaSigner {
	return &arenaSigner{scratchSigner: scratchSigner{Identity: id}}
}

// TestArenaCopies pins the shape of an arena copy: exact-size and
// capacity-capped, carved back to back from one chunk, so appending to one
// cannot reach its neighbour; a copy that does not fit the chunk's rest
// starts a new chunk; and a copy larger than a quarter chunk is a buffer of
// its own that leaves the chunk as it was.
func TestArenaCopies(t *testing.T) {
	var a Arena
	x, y := a.Copy([]byte("first")), a.Copy([]byte("second"))
	if string(x) != "first" || string(y) != "second" || cap(x) != len(x) || cap(y) != len(y) {
		t.Fatalf("copies %q (cap %d) and %q (cap %d), want exact-size copies", x, cap(x), y, cap(y))
	}
	if gap := uintptr(unsafe.Pointer(&y[0])) - uintptr(unsafe.Pointer(&x[0])); gap != uintptr(len(x)) {
		t.Errorf("consecutive copies lie %d bytes apart, want %d: one chunk, back to back", gap, len(x))
	}
	_ = append(x, "-overwrite"...)
	if string(y) != "second" {
		t.Errorf("an append to a copy wrote into its neighbour: %q", y)
	}

	rest := len(a.free)
	big := a.Copy(make([]byte, slabBytes/4+1))
	if len(big) != slabBytes/4+1 || len(a.free) != rest {
		t.Errorf("a copy past a quarter chunk took %d of the chunk's %d free bytes", rest-len(a.free), rest)
	}
	for len(a.free) > slabBytes/4 {
		a.Copy(make([]byte, slabBytes/4))
	}
	a.Copy(make([]byte, len(a.free)-1))
	z := a.Copy([]byte("no room"))
	if string(z) != "no room" || len(a.free) != slabBytes-len(z) {
		t.Errorf("a copy past the chunk's rest left %d free bytes, want a new chunk less %d", len(a.free), len(z))
	}
}

// TestArenaSurvivesTurnover pins the slab rule on a wire arena: a shadow's
// endorsements held while its signer builds 10,000 more messages — an
// endorsement in the same arena each time, and one of every other signed
// kind in turn, from either signatory — are re-read by another goroutine
// all the while and never change. An arena that rewrote a handed-out byte
// races here (run under -race).
func TestArenaSurvivesTurnover(t *testing.T) {
	idents, _ := testIdentities(t, 8)
	primary, shadow := newArenaSigner(idents[0]), newArenaSigner(idents[5])
	proposal := &OrderBatch{Coord: 1, View: 2, FirstSeq: 1, Primary: 0, Shadow: 5,
		Entries: []OrderEntry{{Req: ReqID{Client: types.ClientID(0), ClientSeq: 1}, ReqDigest: fixedSig(0xD1)}}}
	if err := Sign(primary, proposal, &proposal.Sig1); err != nil {
		t.Fatal(err)
	}
	var others []Signed
	for typ := TRequest; typ <= TRejected; typ++ {
		if m, ok := samples()[typ].(Signed); ok {
			others = append(others, m)
		}
	}

	const builds, keepEvery = 10000, 64
	type kept struct {
		m                *OrderBatch
		wire, body, sig2 []byte
	}
	held := make(chan kept, builds/keepEvery+1) // every held endorsement: the builder never waits
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var got []kept
		for k := range held {
			got = append(got, k)
			for i, k := range got { // re-read everything held so far
				if !bytes.Equal(k.m.Marshal(), k.wire) || !bytes.Equal(k.m.SignedBody(), k.body) ||
					!bytes.Equal(k.m.Sig2, k.sig2) {
					t.Errorf("endorsement %d changed after %d later builds", i, (len(got)-1-i)*keepEvery)
					return
				}
			}
		}
	}()
	for i := 0; i < builds; i++ {
		e, err := proposal.Endorse(shadow)
		if err != nil {
			t.Fatal(err)
		}
		if i%keepEvery == 0 {
			held <- kept{e, bytes.Clone(e.Marshal()), bytes.Clone(e.SignedBody()), bytes.Clone(e.Sig2)}
		}
		m := others[i%len(others)]
		first, second := sigSlots(m)
		*first = nil
		signer := []*arenaSigner{primary, shadow}[i%2]
		if err := Sign(signer, m, first); err != nil {
			t.Fatal(err)
		}
		if second != nil {
			*second = nil
			if err := Countersign(shadow, m, *first, second); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(held)
	wg.Wait()
}
