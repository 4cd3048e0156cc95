package runtime

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/types"
)

// deadlineScript is one sequence of SetTimer and Stop calls, run inside a
// node's event loop; what fires, in which order, and what every Stop
// reports go to log. Deadlines are far enough apart that the order does
// not depend on how late a live loop runs: timers fire by deadline, not by
// wake-up, and the only timers set relative to a firing (the F chain) come
// after everything else. finish runs once the last one has fired.
func deadlineScript(env Env, log func(string), finish func()) {
	ms := time.Millisecond
	fire := func(label string) func() { return func() { log(label) } }

	// Stop before the deadline: reported true, never fires.
	b := env.SetTimer(10*ms, fire("B"))
	log(fmt.Sprint("B.stop=", b.Stop()))

	// A handle kept after its timer was stopped, used again once the
	// substrate has had the chance to recycle what was behind it: it must
	// report false and leave the newer timer alone.
	g := env.SetTimer(25*ms, fire("G"))
	log(fmt.Sprint("G.stop=", g.Stop()))
	env.SetTimer(25*ms, fire("G2"))
	log(fmt.Sprint("G.stale=", g.Stop()))

	// Stop after the timer fired reports false (asked from D, below).
	c := env.SetTimer(5*ms, fire("C"))

	// Stop from inside another expiry: E1 and E2 are due together, E1
	// fires first and takes E2 out.
	var e2 Timer
	env.SetTimer(15*ms, func() {
		log("E1")
		log(fmt.Sprint("E2.stop=", e2.Stop()))
	})
	e2 = env.SetTimer(15*ms, fire("E2"))

	// Equal deadlines fire in SetTimer order.
	for _, label := range []string{"A1", "A2", "A3"} {
		env.SetTimer(20*ms, fire(label))
	}

	env.SetTimer(30*ms, func() {
		log("D")
		log(fmt.Sprint("C.stop=", c.Stop()))
	})

	// Re-arm from inside the timer's own callback, stopping the spent
	// handle first, as the batch timer does.
	var f Timer
	fired := 0
	var tick func()
	tick = func() {
		fired++
		log(fmt.Sprint("F", fired))
		if fired == 3 {
			finish()
			return
		}
		log(fmt.Sprint("F.spent=", f.Stop()))
		f = env.SetTimer(5*ms, tick)
	}
	f = env.SetTimer(60*ms, tick)
}

var deadlineScriptWant = []string{
	"B.stop=true", "G.stop=true", "G.stale=false",
	"C",
	"E1", "E2.stop=true",
	"A1", "A2", "A3",
	"G2",
	"D", "C.stop=false",
	"F1", "F.spent=false", "F2", "F.spent=false", "F3",
}

// TestDeadlineSemanticsOnBothSubstrates pins the timer contract once for
// the simulator and the live engine: the same script yields the same log.
func TestDeadlineSemanticsOnBothSubstrates(t *testing.T) {
	t.Run("sim", func(t *testing.T) {
		var got []string
		c, sched := newSim(t, zeroParams, crypto.NewHMACSuite(), nil)
		_ = c.Inject(1, func(env Env) {
			deadlineScript(env, func(s string) { got = append(got, s) }, func() {})
		})
		sched.RunFor(time.Second)
		if !reflect.DeepEqual(got, deadlineScriptWant) {
			t.Errorf("log = %v\nwant  %v", got, deadlineScriptWant)
		}
	})
	t.Run("live", func(t *testing.T) {
		var got []string // written on node 1's loop; read after done
		done := make(chan struct{})
		c := newLive(t, nil)
		_ = c.Inject(1, func(env Env) {
			deadlineScript(env, func(s string) { got = append(got, s) }, func() { close(done) })
		})
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("script did not finish")
		}
		if !reflect.DeepEqual(got, deadlineScriptWant) {
			t.Errorf("log = %v\nwant  %v", got, deadlineScriptWant)
		}
	})
}

// TestTimerStopOffLoopExactlyOnce races Stop, called from outside the
// loop, against expiry on it: every timer either fires or has its Stop
// report true, never both and never neither. Run under -race it is also
// the check that the queue's one lock covers handles used off-loop.
func TestTimerStopOffLoopExactlyOnce(t *testing.T) {
	const n = 400
	var fired [n]atomic.Bool
	timers := make([]Timer, n)
	armed := make(chan struct{})
	c := newLive(t, nil)
	_ = c.Inject(1, func(env Env) {
		for i := range timers {
			i := i
			timers[i] = env.SetTimer(time.Duration(i%8)*time.Millisecond, func() { fired[i].Store(true) })
		}
		close(armed)
	})
	<-armed
	stopped := make([]bool, n)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 4 {
				stopped[i] = timers[i].Stop()
			}
		}(w)
	}
	wg.Wait()
	waitFor(t, func() bool {
		for i := range timers {
			if !stopped[i] && !fired[i].Load() {
				return false
			}
		}
		return true
	}, "every timer that was not stopped to fire")
	for i := range timers {
		if stopped[i] && fired[i].Load() {
			t.Errorf("timer %d fired although Stop reported true", i)
		}
		if timers[i].Stop() {
			t.Errorf("timer %d: a second Stop reported true", i)
		}
	}
}

// TestStopCancelsPendingTimers holds closeLoop to dropping the deadline
// queue: no callback runs after Stop, a handle from before reports false,
// and SetTimer on the dead engine is inert.
func TestStopCancelsPendingTimers(t *testing.T) {
	var late atomic.Bool
	var env Env
	var pending Timer
	armed := make(chan struct{})
	c := newLive(t, nil)
	_ = c.Inject(1, func(e Env) {
		env = e
		pending = e.SetTimer(30*time.Millisecond, func() { late.Store(true) })
		close(armed)
	})
	<-armed
	c.Stop()
	if pending.Stop() {
		t.Error("Stop on a handle of a closed engine reported true")
	}
	if env.SetTimer(time.Millisecond, func() { late.Store(true) }).Stop() {
		t.Error("a timer set on a closed engine was pending")
	}
	time.Sleep(60 * time.Millisecond)
	if late.Load() {
		t.Error("a timer fired after Stop")
	}
}

// TestSetTimerStopAllocFree is the timer floor: in steady state arming and
// stopping a timer costs the caller's closure and nothing else — the entry
// is recycled and handles are cut from a chunk (one allocation per
// handleChunk timers, which the average rounds away).
func TestSetTimerStopAllocFree(t *testing.T) {
	e, wg := startEngine(t)
	defer wg.Wait()
	defer e.closeLoop()
	n := 0
	round := func() {
		tm := e.SetTimer(time.Hour, func() { n++ })
		if !tm.Stop() {
			t.Fatal("Stop() = false for a pending timer")
		}
	}
	round()
	if got := testing.AllocsPerRun(10*handleChunk, round); got > 1 {
		t.Errorf("SetTimer + Stop = %v allocs, want <= 1 (the callback's closure)", got)
	}
	// Fire-and-recycle, the other way an entry comes back.
	fired := make(chan struct{}, 1)
	fire := func() {
		e.SetTimer(0, func() { fired <- struct{}{} })
		<-fired
	}
	fire()
	if got := testing.AllocsPerRun(200, fire); got > 1 {
		t.Errorf("SetTimer + expiry = %v allocs, want <= 1 (the callback's closure)", got)
	}
}

// raceEnabled is set by race_test.go: under the race detector sync.Pool
// sheds what it is given, so the pooled MAC states allocate.
var raceEnabled bool

// TestSignVerifyThroughEnvAllocFree is the digest floor on the path the
// protocol takes: through a live-engine Env under HMAC-SHA256, signing
// allocates the signature and nothing else, verifying allocates nothing —
// the transient digests land in the Env's scratch.
func TestSignVerifyThroughEnvAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds under the race detector")
	}
	idents := identities(t, crypto.NewHMACSuite(), 2)
	e := &engine{}
	e.attach(0, idents[0], nil, nil, t.Logf)
	body := []byte("a signable body of some sixty-four bytes, give or take a few....")
	sig1, err := message.SignSingle(e, body)
	if err != nil {
		t.Fatal(err)
	}
	other := &engine{}
	other.attach(1, idents[1], nil, nil, t.Logf)
	sig2, err := message.SignSecond(other, body, sig1)
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, func() { _, _ = message.SignSingle(e, body) }); got > 1 {
		t.Errorf("SignSingle through an Env = %v allocs, want <= 1 (the signature)", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		if err := message.VerifySingle(e, 0, body, sig1); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("VerifySingle through an Env = %v allocs, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		if err := message.VerifyDouble(e, 0, types.NodeID(1), body, sig1, sig2); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("VerifyDouble through an Env = %v allocs, want 0", got)
	}
	// A kept digest still owns its bytes: scratch never backs Digest.
	kept := e.Digest(body)
	want := append([]byte(nil), kept...)
	e.ScratchDigest([]byte("something else"))
	if !reflect.DeepEqual(kept, want) {
		t.Error("Digest's result was overwritten by a later ScratchDigest")
	}
}
