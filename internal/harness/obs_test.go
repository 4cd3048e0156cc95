package harness

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/sof-repro/sof/internal/obs"
	"github.com/sof-repro/sof/internal/types"
)

// scrapeOps GETs one path from a node's ops mux and returns status and
// body, the way the CI scrape step does.
func scrapeOps(t *testing.T, base, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

func awaitReady(check obs.ReadyFunc, deadline time.Duration) error {
	end := time.Now().Add(deadline)
	var err error
	for time.Now().Before(end) {
		if err = check(); err == nil {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return err
}

func submitAndCommit(t *testing.T, c *Cluster, n, offset int) {
	t.Helper()
	for i := 0; i < n; i++ {
		id, err := c.Submit(0, []byte{byte(offset + i), byte((offset + i) >> 8)})
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(20 * time.Second)
		for !c.Events.Committed(id) {
			if time.Now().After(deadline) {
				t.Fatalf("request %d never committed", offset+i)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// TestOpsSurfaceScrapeAndReadyzFlip stands up a 4-node durable SC
// cluster over TCP, serves each node's ops mux the way sofnode's
// -metrics-addr does, and checks the live surface end to end: /metrics
// parses under the validating exposition parser and carries the core,
// transport and WAL families; /healthz is always 200; /readyz is 503
// while a node is down and during restart catch-up and 200 once the restarted node caught up on the
// commits it missed.
func TestOpsSurfaceScrapeAndReadyzFlip(t *testing.T) {
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

	submitAndCommit(t, c, 30, 0)

	procs := c.Topo.AllProcesses()
	servers := make(map[types.NodeID]*httptest.Server, len(procs))
	for _, id := range procs {
		srv := httptest.NewServer(obs.NewMux(c.RegistryOf(id), c.ReadinessOf(id)))
		defer srv.Close()
		servers[id] = srv
	}

	// Every node's scrape must be well-formed exposition and every node
	// must reach ready (each boots through its own catch-up round).
	for _, id := range procs {
		code, body := scrapeOps(t, servers[id].URL, "/metrics")
		if code != http.StatusOK {
			t.Fatalf("node %v /metrics: status %d", id, code)
		}
		fams, err := obs.ParseText([]byte(body))
		if err != nil {
			t.Fatalf("node %v /metrics malformed: %v", id, err)
		}
		for _, want := range []string{
			"sof_commit_watermark",
			"sof_failovers_total",
			"sof_batch_fill_ratio",
			"sof_catching_up",
			"sof_transport_connected_peers",
			"sof_peer_queued_total",
			"sof_wal_fsync_seconds",
		} {
			if fams[want] == nil {
				t.Errorf("node %v /metrics missing family %s", id, want)
			}
		}
		if f := fams["sof_commit_watermark"]; f != nil &&
			(len(f.Samples) == 0 || f.Samples[0].Value <= 0) {
			t.Errorf("node %v sof_commit_watermark not advanced: %+v", id, f.Samples)
		}
		if code, _ := scrapeOps(t, servers[id].URL, "/healthz"); code != http.StatusOK {
			t.Errorf("node %v /healthz: status %d", id, code)
		}
		if err := awaitReady(c.ReadinessOf(id), 15*time.Second); err != nil {
			t.Fatalf("node %v never became ready: %v", id, err)
		}
		if code, body := scrapeOps(t, servers[id].URL, "/readyz"); code != http.StatusOK {
			t.Errorf("node %v /readyz: status %d body %q", id, code, body)
		}
	}

	// Kill an order process: its readiness must flip to 503 while the
	// incarnation is gone.
	victim, _ := c.Topo.ReplicaID(3)
	if err := c.KillNode(victim); err != nil {
		t.Fatal(err)
	}
	if code, body := scrapeOps(t, servers[victim].URL, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("killed node %v /readyz: status %d body %q, want 503", victim, code, body)
	}

	// Commit past the victim so its successor has history to catch up
	// on, then restart it. The readiness probe must report the catch-up
	// window (from the incarnation's construction until its catch-up
	// round completes) and flip back to 200 once it is over.
	submitAndCommit(t, c, 30, 30)
	catchups := c.Metric(victim, 0, "sof_catchups_total")
	if err := c.RestartNode(victim); err != nil {
		t.Fatal(err)
	}
	if c.SCProcess(victim).CatchingUp() {
		if err := c.ReadinessOf(victim)(); err == nil ||
			!strings.Contains(err.Error(), "catching up") {
			t.Errorf("readiness during catch-up = %v, want catching-up error", err)
		}
	}
	if !awaitCaughtUp(c, victim, 20*time.Second) {
		t.Fatal("restarted node never finished catch-up")
	}
	if got := c.Metric(victim, 0, "sof_catchups_total"); got <= catchups {
		t.Errorf("sof_catchups_total = %v after restart, want > %v", got, catchups)
	}
	if err := awaitReady(c.ReadinessOf(victim), 15*time.Second); err != nil {
		t.Fatalf("restarted node never became ready: %v", err)
	}
	if code, body := scrapeOps(t, servers[victim].URL, "/readyz"); code != http.StatusOK {
		t.Fatalf("restarted node %v /readyz: status %d body %q", victim, code, body)
	}
	if _, err := obs.ParseText([]byte(func() string {
		_, body := scrapeOps(t, servers[victim].URL, "/metrics")
		return body
	}())); err != nil {
		t.Fatalf("post-restart /metrics malformed: %v", err)
	}
}
