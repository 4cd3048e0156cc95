package harness

import (
	"runtime"
	"testing"
	"time"
	"weak"

	"github.com/sof-repro/sof/internal/core"
	"github.com/sof-repro/sof/internal/ingress"
	"github.com/sof-repro/sof/internal/netsim"
	"github.com/sof-repro/sof/internal/types"
)

// stoppedCluster runs a cluster into the state that used to outlive Stop —
// committed traffic behind it, the ingress eviction timer armed 30 s out
// on every order process, and the shadow holding live pair expectations
// (the primary is crashed, Delta is 30 s) — stops it, and returns nothing
// but weak pointers to its order processes.
func stoppedCluster(t *testing.T, mutate func(*Options)) []weak.Pointer[core.Process] {
	t.Helper()
	opts := Options{
		Protocol:      types.SC,
		F:             1,
		BatchInterval: 5 * time.Millisecond,
		Delta:         30 * time.Second,
		Net:           netsim.LANDefaults(),
		Ingress:       ingress.Config{Enabled: true},
	}
	mutate(&opts)
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	// A failure below must not leave the cluster running beside the next
	// subtest.
	stopped := false
	defer func() {
		if !stopped {
			c.Stop()
		}
	}()
	first, err := c.Submit(0, []byte("committed before the crash"))
	if err != nil {
		t.Fatal(err)
	}
	if c.AwaitCommit(10*time.Second, first) != 0 {
		t.Fatal("first request never committed")
	}
	deadline := time.Now().Add(10 * time.Second)
	primary, err := c.Topo.ReplicaID(1)
	if err != nil {
		t.Fatal(err)
	}
	shadow, _ := c.Topo.PairOf(primary)
	c.Crash(primary)
	second, err := c.Submit(0, []byte("awaited by the shadow for the next 30 s"))
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the body itself: the admission counter misses a request
	// whose order reached the shadow first, as the first one's may have —
	// an ordered or awaited body bypasses admission.
	pool := c.OrderPool(shadow, 0)
	for {
		if held, ok := probeOnLoop(c, shadow, 0, func() bool { _, ok := pool.Get(second); return ok }); ok && held {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second request never reached the shadow")
		}
		c.RunFor(5 * time.Millisecond)
	}
	c.Stop()
	stopped = true
	var procs []weak.Pointer[core.Process]
	for _, id := range c.Topo.AllProcesses() {
		procs = append(procs, weak.Make(c.SCProcess(id)))
	}
	return procs
}

// TestStoppedClusterIsCollectable is the regression test for timers that
// outlived Stop: every pending timer kept its process graph reachable
// until it fired, so a stopped cluster stayed in memory for the 30 s of
// its ingress eviction timers and the Delta of its pair expectations.
// The deadline queue dies with the engine, so one collection after Stop
// must find every order process unreachable — with no 30 s wait.
func TestStoppedClusterIsCollectable(t *testing.T) {
	for name, mutate := range map[string]func(*Options){
		"sim":  func(*Options) {},
		"live": func(o *Options) { o.Live = true },
		"tcp":  func(o *Options) { o.Live, o.Transport = true, types.TransportTCP },
	} {
		t.Run(name, func(t *testing.T) {
			procs := stoppedCluster(t, mutate)
			// Connection goroutines of a TCP cluster unwind just after
			// Stop returns; nothing here waits anywhere near a timer.
			deadline := time.Now().Add(5 * time.Second)
			for {
				runtime.GC()
				held := 0
				for _, p := range procs {
					if p.Value() != nil {
						held++
					}
				}
				if held == 0 {
					return
				}
				if time.Now().After(deadline) {
					t.Fatalf("%d of %d order processes still reachable 5 s after Stop", held, len(procs))
				}
				time.Sleep(20 * time.Millisecond)
			}
		})
	}
}
