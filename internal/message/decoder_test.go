package message

import (
	"bytes"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"github.com/sof-repro/sof/internal/types"
)

// checkSameDecode runs one input through Decode and through d and requires
// the same outcome: equal errors, or messages with deep-equal fields and
// identical Marshal and SignedBody bytes. Both decodes alias in.
func checkSameDecode(t *testing.T, d *Decoder, in []byte) (Message, error) {
	t.Helper()
	want, wantErr := Decode(in)
	got, err := d.Decode(in)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("Decoder.Decode error %v, Decode error %v", err, wantErr)
	}
	if err != nil {
		if got != nil {
			t.Fatalf("a failed Decoder.Decode returned %v", got)
		}
		return nil, err
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Decoder.Decode and Decode disagree:\n got  %+v\n want %+v", got, want)
	}
	if !bytes.Equal(got.Marshal(), want.Marshal()) {
		t.Fatalf("%v: Marshal differs between Decoder.Decode and Decode", got.Type())
	}
	if s, ok := got.(Signed); ok && !bytes.Equal(s.SignedBody(), want.(Signed).SignedBody()) {
		t.Fatalf("%v: SignedBody differs between Decoder.Decode and Decode", got.Type())
	}
	return got, nil
}

// TestDecoderMatchesDecode decodes the sample of every kind through one
// Decoder. The kinds that nest messages (CatchUp, BackLog, PairStart, the
// BFT certificates) decode their insides through the same Decoder: a
// CatchUp's Request is a slab element, not a heap object of its own.
func TestDecoderMatchesDecode(t *testing.T) {
	d := new(Decoder)
	for typ := TRequest; typ <= TRejected; typ++ {
		m := samples()[typ]
		unhanded := len(d.requests.free)
		got, err := checkSameDecode(t, d, m.Marshal())
		if err != nil {
			t.Fatalf("%v: %v", typ, err)
		}
		if cu, ok := got.(*CatchUp); ok {
			if len(cu.Requests) != 1 || len(d.requests.free) != unhanded-1 {
				t.Errorf("CatchUp's nested Request was not carved from the slab: %d unhanded before, %d after",
					unhanded, len(d.requests.free))
			}
		}
		if mir, ok := got.(*Mirror); ok {
			if inner, err := mir.InnerMessage(); err != nil || inner.Type() != TOrderBatch {
				t.Errorf("Mirror decoded through a Decoder lost its inner message: %v, %v", inner, err)
			}
		}
	}
}

// TestDecoderFailedDecodeCarvesNothing: a frame that fails to decode —
// halfway through its own struct, or after nested messages of it were
// decoded whole — leaves the Decoder as it found it, with blank elements,
// and the next message gets the element the failure had begun to fill.
func TestDecoderFailedDecodeCarvesNothing(t *testing.T) {
	all := samples()
	reqWire, cuWire := all[TRequest].Marshal(), all[TCatchUp].Marshal()
	ackWire := all[TAck].Marshal()
	for name, c := range map[string]struct {
		spent int // slab elements handed out before the failure
		bad   []byte
	}{
		"truncated request":              {3, reqWire[:len(reqWire)-5]},
		"request with trailing bytes":    {3, append(bytes.Clone(reqWire), 0)},
		"truncated ack":                  {3, ackWire[:len(ackWire)-1]},
		"catch-up with a garbage tail":   {3, cuWire[:len(cuWire)-3]},
		"failure on a fresh decoder":     {0, reqWire[:len(reqWire)-5]},
		"failure that turns a slab over": {slabLen[Request](), cuWire[:len(cuWire)-3]},
	} {
		t.Run(name, func(t *testing.T) {
			d := new(Decoder)
			var held []*Request
			for i := 0; i < c.spent; i++ {
				m, err := d.Decode(reqWire)
				if err != nil {
					t.Fatal(err)
				}
				held = append(held, m.(*Request))
			}
			before := *d
			if _, err := checkSameDecode(t, d, c.bad); err == nil {
				t.Fatal("the malformed frame decoded")
			}
			if len(d.requests.free) != len(before.requests.free) || len(d.acks.free) != len(before.acks.free) {
				t.Fatalf("a failed decode consumed slab elements: requests %d -> %d, acks %d -> %d",
					len(before.requests.free), len(d.requests.free), len(before.acks.free), len(d.acks.free))
			}
			if len(d.requests.free) > 0 && &d.requests.free[0] != &before.requests.free[0] {
				t.Fatal("a failed decode moved the Decoder to another slab")
			}
			for i := range d.requests.free {
				if !reflect.DeepEqual(d.requests.free[i], Request{}) {
					t.Fatalf("unhanded request element %d is not blank after a failed decode: %+v", i, d.requests.free[i])
				}
			}
			for i := range d.acks.free {
				if !reflect.DeepEqual(d.acks.free[i], Ack{}) {
					t.Fatalf("unhanded ack element %d is not blank after a failed decode: %+v", i, d.acks.free[i])
				}
			}
			var next *Request
			if len(d.requests.free) > 0 {
				next = &d.requests.free[0]
			}
			m, err := checkSameDecode(t, d, reqWire)
			if err != nil {
				t.Fatal(err)
			}
			if next != nil && m.(*Request) != next {
				t.Error("the element a failed decode had begun to fill was skipped, not reused")
			}
			want, _ := Decode(reqWire)
			for i, r := range held {
				if r == m.(*Request) || !reflect.DeepEqual(r, want) {
					t.Errorf("request %d, held across the failure, is aliased or changed", i)
				}
			}
		})
	}
}

// TestDecodedMessagesSurviveSlabTurnover pins the slab rule — an element is
// never rewritten once handed out: Requests and Acks held while the Decoder
// moves on through three more slabs of each keep their fields, and a
// goroutine re-reading them all the while never races with the Decoder
// filling their slab neighbours (run under -race).
func TestDecodedMessagesSurviveSlabTurnover(t *testing.T) {
	n := 3*slabLen[Request]() + slabLen[Request]()/2 // Acks are the larger struct: more turnovers still
	wires := make([][]byte, 0, 2*n)
	for i := 0; i < n; i++ {
		wires = append(wires,
			(&Request{Client: types.ClientID(i % 3), ClientSeq: uint64(i), Payload: []byte{byte(i)}, Sig: fixedSig(byte(i))}).Marshal(),
			(&Ack{From: types.NodeID(i % 4), Kind: SubjectBatch, View: 1, FirstSeq: types.Seq(i),
				SubjectDigest: fixedSig(byte(i)), Sig: fixedSig(byte(i + 1))}).Marshal())
	}
	intact := func(i int, m Message) bool {
		k := i / 2
		switch m := m.(type) {
		case *Request:
			return m.ClientSeq == uint64(k) && m.Client == types.ClientID(k%3) && bytes.Equal(m.Payload, []byte{byte(k)}) &&
				bytes.Equal(m.Sig, fixedSig(byte(k))) && bytes.Equal(m.Marshal(), wires[i]) && bytes.HasPrefix(wires[i], m.SignedBody())
		case *Ack:
			return m.FirstSeq == types.Seq(k) && m.From == types.NodeID(k%4) && bytes.Equal(m.SubjectDigest, fixedSig(byte(k))) &&
				bytes.Equal(m.Sig, fixedSig(byte(k+1))) && bytes.Equal(m.Marshal(), wires[i])
		}
		return false
	}
	held := make(chan Message, len(wires)) // every message: the sender never blocks
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var got []Message
		for m := range held {
			got = append(got, m)
			for i, g := range got { // re-read everything held so far
				if !intact(i, g) {
					t.Errorf("message %d changed after %d later messages were decoded", i, len(got)-1-i)
					return
				}
			}
		}
		if len(got) != len(wires) {
			t.Errorf("held %d messages, want %d", len(got), len(wires))
		}
	}()
	d := new(Decoder)
	for _, w := range wires {
		m, err := d.Decode(w)
		if err != nil {
			t.Fatal(err)
		}
		held <- m
	}
	close(held)
	wg.Wait()
}

// TestDecoderAllocFree pins what a Decoder's Requests and Acks cost the
// heap: one object per slab's worth of them, the slab. Decode's struct per
// message (what the engine paid before) reads the slab's length here.
func TestDecoderAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation floors do not hold under the race detector")
	}
	all := samples()
	d := new(Decoder)
	for typ, perSlab := range map[Type]int{TRequest: slabLen[Request](), TAck: slabLen[Ack]()} {
		wire := all[typ].Marshal()
		var err error
		if got := testing.AllocsPerRun(20, func() {
			for i := 0; i < perSlab; i++ {
				_, err = d.Decode(wire)
			}
		}); got > 1 || err != nil {
			t.Errorf("decoding %d %vs cost %v allocs (err %v), want <= 1 (the slab)", perSlab, typ, got, err)
		}
	}
	if got := testing.AllocsPerRun(20, func() { _, _ = d.Decode(all[TOrderBatch].Marshal()) }); got < 1 {
		t.Errorf("an OrderBatch decoded through a Decoder cost %v allocs; it must stay an object of its own", got)
	}
}

// TestOrderBatchIsOneBlock pins what a batch costs the heap, decoded by
// Decode or by a Decoder and built by NewOrderBatch: one object — the
// struct with its entries inline — up to inlineEntries, and two beyond,
// where the entries spill to an array of their own. Both decoded forms
// stay deep-equal to each other and to the batch that was sent, and the
// block stays inside the allocator's 480-byte size class.
func TestOrderBatchIsOneBlock(t *testing.T) {
	if size := unsafe.Sizeof(orderBatchBlock{}); size > 480 {
		t.Errorf("an OrderBatch block is %d bytes, past the 480-byte size class", size)
	}
	d := new(Decoder)
	for _, n := range []int{1, inlineEntries - 1, inlineEntries, inlineEntries + 1, 3 * inlineEntries} {
		want := 1.0
		if n > inlineEntries {
			want = 2
		}
		sent := NewOrderBatch(n)
		*sent = OrderBatch{Coord: 1, View: 2, FirstSeq: 3, Entries: sent.Entries, Primary: 0, Shadow: 5,
			Sig1: fixedSig(0xA1), Sig2: fixedSig(0xA2)}
		for i := range sent.Entries {
			sent.Entries[i] = OrderEntry{Req: ReqID{Client: types.ClientID(i % 3), ClientSeq: uint64(i)}, ReqDigest: fixedSig(byte(i))}
		}
		wire := sent.Marshal()
		got, err := checkSameDecode(t, d, wire)
		if err != nil {
			t.Fatalf("%d entries: %v", n, err)
		}
		b := got.(*OrderBatch)
		if !reflect.DeepEqual(b.Entries, sent.Entries) || b.Primary != sent.Primary || b.Shadow != sent.Shadow {
			t.Errorf("%d entries: decoded %+v, sent %+v", n, b, sent)
		}
		inline := &(*orderBatchBlock)(unsafe.Pointer(b)).inline[0]
		if inBlock := &b.Entries[0] == inline; inBlock != (n <= inlineEntries) {
			t.Errorf("%d entries: decoded into the block = %v, want %v", n, inBlock, n <= inlineEntries)
		}
		if cap(b.Entries) != n {
			t.Errorf("%d entries: capacity %d, want the length: an append must not write into the block", n, cap(b.Entries))
		}
		if raceEnabled {
			continue
		}
		for name, fn := range map[string]func(){
			"Decode":         func() { _, err = Decode(wire) },
			"Decoder.Decode": func() { _, err = d.Decode(wire) },
			"NewOrderBatch":  func() { sinkBatch = NewOrderBatch(n) },
		} {
			if allocs := testing.AllocsPerRun(50, fn); allocs != want || err != nil {
				t.Errorf("%s of %d entries = %v allocs (err %v), want %v", name, n, allocs, err, want)
			}
		}
	}
}

var sinkBatch *OrderBatch

// TestDroppedDuplicateOrderBatchIsCollected is why OrderBatch stays out of
// the slabs: the primary's forwarded duplicate of every endorsed batch is
// dropped on arrival, and it must be collectable then — while the batches
// decoded before and after it by the same Decoder are still held.
func TestDroppedDuplicateOrderBatchIsCollected(t *testing.T) {
	d := new(Decoder)
	wire := samples()[TOrderBatch].Marshal()
	decode := func() *OrderBatch {
		m, err := d.Decode(bytes.Clone(wire))
		if err != nil {
			t.Fatal(err)
		}
		return m.(*OrderBatch)
	}
	collected := make(chan struct{})
	held := []*OrderBatch{decode()}
	func() {
		dup := decode()
		runtime.SetFinalizer(dup, func(*OrderBatch) { close(collected) })
	}()
	for i := 0; i < 128; i++ {
		held = append(held, decode())
	}
	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(held)
			return
		case <-deadline:
			t.Fatal("a dropped OrderBatch was not collected while its successors were held")
		case <-time.After(10 * time.Millisecond):
		}
	}
}
