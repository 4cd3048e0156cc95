package client_test

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/sof-repro/sof/internal/client"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/runtime"
)

// TestQueuedSubmissionsKeepOrder: hosts queueing from several goroutines
// at once while the loop drains get distinct IDs, and the loop signs and
// multicasts every submission exactly once, in ID order, with the payload
// it was queued with — a drain per Queue, most of which find the queue
// emptied by an earlier one, and never a lost or a doubled submission (run
// under -race).
func TestQueuedSubmissionsKeepOrder(t *testing.T) {
	const hosts, each = 4, 300
	w := newScript(t)
	out := make(chan message.Message, hosts*each) // every submission: the loop never waits
	env := newLoopEnv(t)
	env.out = out
	c := client.New(client.Config{ID: me, Targets: w.topo.AllProcesses(), Seq: new(atomic.Uint64)})

	// The loop: runs the drains hosts hand it, in order, as an engine does.
	loop := make(chan func(runtime.Env), hosts*each) // a drain per submission
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		for drain := range loop {
			drain(env)
		}
	}()
	var (
		mu     sync.Mutex
		sentAs = make(map[uint64]uint32) // ClientSeq -> host<<16 | i
		wg     sync.WaitGroup
	)
	for h := range hosts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				tag := uint32(h)<<16 | uint32(i)
				id := c.Queue(binary.BigEndian.AppendUint32(nil, tag))
				mu.Lock()
				sentAs[id.ClientSeq] = tag
				mu.Unlock()
				loop <- c.Drain()
			}
		}()
	}
	wg.Wait()
	close(loop)
	<-loopDone
	close(out)

	next := uint64(1)
	last := make(map[uint32]uint32) // host -> its last i seen
	for m := range out {
		r := m.(*message.Request)
		if r.Client != me || r.ClientSeq != next {
			t.Fatalf("request %v multicast where ClientSeq %d was due", r.ID(), next)
		}
		tag := binary.BigEndian.Uint32(r.Payload)
		if tag != sentAs[r.ClientSeq] {
			t.Fatalf("ClientSeq %d carries payload %x, queued with %x", r.ClientSeq, tag, sentAs[r.ClientSeq])
		}
		if h, i := tag>>16, tag&0xffff; i > 0 && last[h] != i-1 {
			t.Fatalf("host %d's submission %d follows its %d", h, i, last[h])
		} else {
			last[h] = i
		}
		next++
	}
	if got := next - 1; got != hosts*each {
		t.Errorf("%d submissions multicast, want %d", got, hosts*each)
	}
	if s := c.Summary(); s.Submitted != hosts*each {
		t.Errorf("summary %+v, want %d submitted", s, hosts*each)
	}
}

// TestUnqueueTakesBackItsOwn: a host whose injection failed takes back
// its own submission and no other, and learns when a drain has already
// sent it. A halted client queues nothing and drops what it held.
func TestUnqueueTakesBackItsOwn(t *testing.T) {
	w := newScript(t)
	out := make(chan message.Message, 8)
	env := newLoopEnv(t)
	env.out = out
	c := client.New(client.Config{ID: me, Targets: w.topo.AllProcesses(), Seq: new(atomic.Uint64)})
	sent := func() (seqs []uint64) {
		for {
			select {
			case m := <-out:
				seqs = append(seqs, m.(*message.Request).ClientSeq)
			default:
				return seqs
			}
		}
	}

	a, b, d := c.Queue([]byte("a")), c.Queue([]byte("b")), c.Queue([]byte("d"))
	if !c.Unqueue(b) {
		t.Fatalf("Unqueue(%v) found nothing queued", b)
	}
	if c.Unqueue(b) {
		t.Fatalf("Unqueue(%v) took it back twice", b)
	}
	c.Drain()(env)
	if got := fmt.Sprint(sent()); got != fmt.Sprint([]uint64{a.ClientSeq, d.ClientSeq}) {
		t.Fatalf("drain sent %s, want %v and %v", got, a, d)
	}
	if c.Unqueue(a) {
		t.Fatalf("Unqueue(%v) reported a sent submission as taken back", a)
	}
	c.Drain()(env) // the drains injected for b and d find nothing
	if got := sent(); len(got) != 0 {
		t.Fatalf("an emptied queue's drain sent %v", got)
	}

	held := c.Queue([]byte("held"))
	c.Halt()
	late := c.Queue([]byte("late"))
	if late.ClientSeq != held.ClientSeq+1 {
		t.Errorf("a halted client drew %v after %v", late, held)
	}
	c.Drain()(env)
	if got := sent(); len(got) != 0 || c.Unqueue(held) || c.Unqueue(late) {
		t.Errorf("a halted client sent %v or still held a submission", got)
	}
}
