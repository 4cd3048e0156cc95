package netsim

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/types"
)

func testTopo(t *testing.T) types.Topology {
	t.Helper()
	topo, err := types.NewTopology(types.SC, 2)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestLinkParamsDelay(t *testing.T) {
	p := LinkParams{BaseDelay: 100 * time.Microsecond, BytesPerSec: 1_000_000}
	if got := p.Delay(0, nil); got != 100*time.Microsecond {
		t.Errorf("Delay(0) = %v", got)
	}
	// 1000 bytes at 1 MB/s = 1 ms transmission.
	if got := p.Delay(1000, nil); got != 100*time.Microsecond+time.Millisecond {
		t.Errorf("Delay(1000) = %v", got)
	}
	// Infinite bandwidth.
	p2 := LinkParams{BaseDelay: time.Millisecond}
	if got := p2.Delay(1<<20, nil); got != time.Millisecond {
		t.Errorf("Delay(inf bw) = %v", got)
	}
	// Jitter stays within [0, Jitter).
	p3 := LinkParams{BaseDelay: time.Millisecond, Jitter: 100 * time.Microsecond}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		d := p3.Delay(0, rng)
		if d < time.Millisecond || d >= time.Millisecond+100*time.Microsecond {
			t.Fatalf("jittered delay %v out of range", d)
		}
	}
}

func TestParamsCPUCosts(t *testing.T) {
	p := Params{SendCPUBase: 100, SendCPUPerKB: 1024, RecvCPUBase: 200, RecvCPUPerKB: 2048}
	if got := p.SendCost(1024); got != 100+1024 {
		t.Errorf("SendCost(1KiB) = %v", got)
	}
	if got := p.RecvCost(512); got != 200+1024 {
		t.Errorf("RecvCost(512B) = %v", got)
	}
}

func TestPairLinkClassification(t *testing.T) {
	topo := testTopo(t) // p1..p5 = 0..4, shadows p'1,p'2 = 5,6
	f := New(LANDefaults(), topo, 1)
	if !f.IsPairLink(0, 5) || !f.IsPairLink(5, 0) {
		t.Error("pair link {p1,p'1} not recognised")
	}
	if f.IsPairLink(0, 1) || f.IsPairLink(2, 5) || f.IsPairLink(2, 6) {
		t.Error("non-pair link misclassified as pair")
	}
	// Pair links are faster than LAN links for same size.
	dPair, ok1 := f.Delay(0, 5, 100)
	dLAN, ok2 := f.Delay(0, 1, 100)
	if !ok1 || !ok2 {
		t.Fatal("links unexpectedly cut")
	}
	if dPair >= dLAN+LANDefaults().LAN.Jitter {
		t.Errorf("pair link (%v) not faster than LAN (%v)", dPair, dLAN)
	}
}

func TestSelfDeliveryInstantaneous(t *testing.T) {
	f := New(LANDefaults(), testTopo(t), 1)
	d, ok := f.Delay(3, 3, 1<<20)
	if !ok || d != 0 {
		t.Errorf("self delay = %v, %v; want 0, true", d, ok)
	}
}

func TestCutAndHeal(t *testing.T) {
	f := New(LANDefaults(), testTopo(t), 1)
	f.Cut(1, 2)
	if _, ok := f.Delay(1, 2, 10); ok {
		t.Error("cut link 1->2 still delivers")
	}
	if _, ok := f.Delay(2, 1, 10); ok {
		t.Error("cut link 2->1 still delivers")
	}
	if _, ok := f.Delay(1, 3, 10); !ok {
		t.Error("unrelated link cut")
	}
	f.Heal(1, 2)
	if _, ok := f.Delay(1, 2, 10); !ok {
		t.Error("healed link does not deliver")
	}
}

func TestLagDelaysOneDirection(t *testing.T) {
	lagged, plain := New(LANDefaults(), testTopo(t), 1), New(LANDefaults(), testTopo(t), 1)
	lagged.Lag(1, 2, 3*time.Millisecond)
	d, ok := lagged.Delay(1, 2, 10)
	want, _ := plain.Delay(1, 2, 10)
	if !ok || d != want+3*time.Millisecond {
		t.Errorf("lagged link 1->2 delays %v (ok %v), want %v", d, ok, want+3*time.Millisecond)
	}
	d, _ = lagged.Delay(2, 1, 10)
	want, _ = plain.Delay(2, 1, 10)
	if d != want {
		t.Errorf("reverse link 2->1 delays %v, want the unlagged %v", d, want)
	}
	lagged.Lag(1, 2, 0)
	d, _ = lagged.Delay(1, 2, 10)
	want, _ = plain.Delay(1, 2, 10)
	if d != want {
		t.Errorf("link 1->2 delays %v after its lag was removed, want %v", d, want)
	}
}

func TestIsolateAndRejoin(t *testing.T) {
	f := New(LANDefaults(), testTopo(t), 1)
	f.Isolate(4)
	if _, ok := f.Delay(4, 0, 10); ok {
		t.Error("isolated node can send")
	}
	if _, ok := f.Delay(0, 4, 10); ok {
		t.Error("isolated node can receive")
	}
	// Self delivery is unaffected (process-internal).
	if _, ok := f.Delay(4, 4, 10); !ok {
		t.Error("isolation broke self-delivery")
	}
	f.Rejoin(4)
	if _, ok := f.Delay(4, 0, 10); !ok {
		t.Error("rejoined node cannot send")
	}
}

func TestCounters(t *testing.T) {
	f := New(LANDefaults(), testTopo(t), 1)
	f.Record(message.TOrderBatch, 1000)
	f.Record(message.TOrderBatch, 500)
	f.Record(message.TAck, 100)
	counts := f.CountsByType()
	if c := counts[message.TOrderBatch]; c.Messages != 2 || c.Bytes != 1500 {
		t.Errorf("OrderBatch counter = %+v", c)
	}
	if c := counts[message.TAck]; c.Messages != 1 || c.Bytes != 100 {
		t.Errorf("Ack counter = %+v", c)
	}
	if tot := f.Totals(); tot.Messages != 3 || tot.Bytes != 1600 {
		t.Errorf("Totals = %+v", tot)
	}
	out := f.FormatCounts()
	if !strings.Contains(out, "OrderBatch") || !strings.Contains(out, "Ack") {
		t.Errorf("FormatCounts output missing types:\n%s", out)
	}
	f.ResetCounters()
	if tot := f.Totals(); tot.Messages != 0 {
		t.Errorf("Totals after reset = %+v", tot)
	}
}

func TestClientLinksUseLAN(t *testing.T) {
	f := New(LANDefaults(), testTopo(t), 1)
	client := types.ClientID(0)
	d, ok := f.Delay(client, 0, 100)
	if !ok {
		t.Fatal("client link cut")
	}
	min := LANDefaults().LAN.BaseDelay
	if d < min {
		t.Errorf("client delay %v below LAN base %v", d, min)
	}
}

func TestDeterministicJitterStream(t *testing.T) {
	topo := testTopo(t)
	f1 := New(LANDefaults(), topo, 42)
	f2 := New(LANDefaults(), topo, 42)
	for i := 0; i < 50; i++ {
		d1, _ := f1.Delay(0, 1, i*10)
		d2, _ := f2.Delay(0, 1, i*10)
		if d1 != d2 {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, d1, d2)
		}
	}
}
