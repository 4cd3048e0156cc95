package harness

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/sof-repro/sof/internal/runtime"
	"github.com/sof-repro/sof/internal/types"
)

// procCheckpointState is a point-in-time read of one SC process's
// checkpoint/catch-up observables, taken inside its event loop.
type procCheckpointState struct {
	delivered types.Seq
	pruned    types.Seq
	logLen    int
	digest    []byte
}

func readCheckpointState(t *testing.T, c *Cluster, id types.NodeID) procCheckpointState {
	t.Helper()
	var st procCheckpointState
	done := make(chan struct{})
	err := c.Inject(id, func(runtime.Env) {
		p := c.SCProcess(id)
		st.delivered = p.MaxDelivered()
		st.pruned = p.HistoryPrunedBelow()
		st.logLen = p.CommittedLogLen()
		st.digest = p.OrderDigest()
		close(done)
	})
	if err != nil {
		t.Fatalf("Inject(%v): %v", id, err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("state read at %v timed out", id)
	}
	return st
}

// TestCheckpointWatermarkPrunesCommittedHistory: with durable protocol
// checkpoints on every order process, gossiped watermarks establish a
// cluster-wide prune floor, the per-process committed logs stay bounded
// instead of retaining every tracker forever, and the rolling
// committed-order digest chains agree across processes at the same
// watermark.
func TestCheckpointWatermarkPrunesCommittedHistory(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP integration test")
	}
	c, err := New(Options{
		Protocol:           types.SC,
		F:                  1,
		BatchInterval:      5 * time.Millisecond,
		Live:               true,
		Transport:          types.TransportTCP,
		Durable:            true,
		DataDir:            t.TempDir(),
		CheckpointInterval: 2,
		KeepCommits:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	const total = 60
	for i := 0; i < total; i++ {
		id, err := c.Submit(0, []byte(fmt.Sprintf("req-%03d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if c.AwaitCommit(20*time.Second, id) != 0 {
			t.Fatalf("request %d never committed", i)
		}
	}

	procs := c.Topo.AllProcesses()
	// Wait until every process delivered everything and pruning has
	// kicked in everywhere (announcements lag one group commit).
	deadline := time.Now().Add(20 * time.Second)
	var states map[types.NodeID]procCheckpointState
	for {
		states = make(map[types.NodeID]procCheckpointState)
		settled := true
		for _, id := range procs {
			st := readCheckpointState(t, c, id)
			states[id] = st
			if st.delivered < total || st.pruned == 0 {
				settled = false
			}
		}
		if settled {
			break
		}
		if time.Now().After(deadline) {
			for id, st := range states {
				t.Logf("process %v: delivered=%d prunedBelow=%d logLen=%d",
					id, st.delivered, st.pruned, st.logLen)
			}
			t.Fatal("cluster never settled with a non-zero prune floor everywhere")
		}
		time.Sleep(20 * time.Millisecond)
	}

	for id, st := range states {
		// The committed log must not retain history below the prune
		// floor: its span is bounded by what lies above the floor (batches
		// can hold several seqs, so the entry count is well below the
		// seq span).
		if maxLen := int(st.delivered-st.pruned) + 1; st.logLen > maxLen {
			t.Errorf("process %v retains %d committed subjects, watermark bound allows %d (delivered=%d pruned=%d)",
				id, st.logLen, maxLen, st.delivered, st.pruned)
		}
	}
	// Digest chains agree wherever watermarks agree.
	for i, a := range procs {
		for _, b := range procs[i+1:] {
			sa, sb := states[a], states[b]
			if sa.delivered == sb.delivered && !bytes.Equal(sa.digest, sb.digest) {
				t.Errorf("processes %v and %v diverge: same watermark %d, different order digests %x vs %x",
					a, b, sa.delivered, sa.digest, sb.digest)
			}
		}
	}
}
