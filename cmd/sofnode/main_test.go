package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sof-repro/sof/internal/client"
	"github.com/sof-repro/sof/internal/core"
	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/harness"
	"github.com/sof-repro/sof/internal/ingress"
	"github.com/sof-repro/sof/internal/node"
	"github.com/sof-repro/sof/internal/runtime"
	"github.com/sof-repro/sof/internal/types"
)

// bind returns a listener on a loopback port of the kernel's choosing; it
// stays bound until whoever it is handed to closes it.
func bind(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// TestClusterInProcess drives the binary's own wiring end to end: four
// run() invocations form a 4-node SC f=1 cluster on loopback with -auth
// -resume and an ops listener each, the system's one client (hosted on a
// TCP node, as sofclient hosts it) submits one request and accepts it once
// f+1 nodes have answered with verifiable signed replies, and every node's
// /readyz is 200. Every endpoint is bound before anything starts, so no
// address is ever guessed.
func TestClusterInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP integration test")
	}
	const secret, f = "sofnode-test", 1
	topo, err := types.NewTopology(types.SC, f)
	if err != nil {
		t.Fatal(err)
	}
	dealt, err := node.DealFromSecret(crypto.HMACSHA256, secret, topo, true, false)
	if err != nil {
		t.Fatal(err)
	}
	me := types.ClientID(0)
	replies := bind(t) // the client's listener, the nodes' -clients
	lns := make([]listeners, topo.N())
	peerAddrs := make([]string, topo.N())
	for i := range lns {
		lns[i] = listeners{peer: bind(t), ops: bind(t)}
		peerAddrs[i] = lns[i].peer.Addr().String()
	}

	stop := make(chan struct{})
	done := make(chan error, topo.N())
	for i := range lns {
		cfg := parseFlags([]string{
			"-id", fmt.Sprint(i), "-f", fmt.Sprint(f), "-protocol", "sc", "-secret", secret,
			"-peers", strings.Join(peerAddrs, ","), "-clients", replies.Addr().String(),
			"-batch", "5ms", "-auth", "-resume",
		})
		go func() { done <- run(cfg, lns[i], stop) }()
	}
	stopped := false
	stopAll := func() {
		if stopped {
			return
		}
		stopped = true
		close(stop)
		for range lns {
			if err := <-done; err != nil {
				t.Errorf("run returned %v", err)
			}
		}
	}
	defer stopAll()

	awaitOK := func(ln net.Listener, path string) {
		t.Helper()
		var last string
		for deadline := time.Now().Add(15 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
			resp, err := http.Get("http://" + ln.Addr().String() + path)
			if err != nil {
				last = err.Error()
				continue
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
			last = fmt.Sprintf("%d %s", resp.StatusCode, body)
		}
		t.Fatalf("%s%s never turned 200: %s", ln.Addr(), path, last)
	}
	// The ops mux is served once the node's transport is up: when /healthz
	// answers, the node accepts client connections. (An idle cluster dials
	// nobody, so readiness — connected to a majority — follows the first
	// request, not boot.)
	for _, l := range lns {
		awaitOK(l.ops, "/healthz")
	}

	endpoint, err := node.Build(node.Spec{
		Self: me, Protocol: types.SC, Topo: topo, Groups: 1, Idents: dealt.Idents,
		Links: dealt.Links, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer endpoint.Close()
	peers, err := node.PeerAddrs(strings.Join(peerAddrs, ","), topo)
	if err != nil {
		t.Fatal(err)
	}
	seq := new(atomic.Uint64)
	seq.Store(uint64(time.Now().UnixNano()))
	cl := client.New(client.Config{
		ID: me, Targets: topo.AllProcesses(), Seq: seq, Need: f + 1,
		Load: &client.Load{Interval: 5 * time.Millisecond, Count: 1,
			Payload: func(int) []byte { return []byte("one request") }},
	})
	tcp, err := endpoint.Listen("", replies, []runtime.Process{cl}, peers)
	if err != nil {
		t.Fatal(err)
	}
	tcp.Start()
	defer tcp.Stop()
	select {
	case <-cl.Done():
	case <-time.After(15 * time.Second):
		t.Fatalf("the request never reached %d signed replies", f+1)
	}
	for _, l := range lns {
		awaitOK(l.ops, "/readyz")
	}
	tcp.Stop() // the loop has exited: the summary is ours to read
	if sum := cl.Summary(); sum.Submitted != 1 || sum.Accepted != 1 || sum.BadSig != 0 {
		t.Errorf("client summary %+v, want one request submitted and accepted", sum)
	}
	stopAll()
}

// TestSpecParityWithHarness: for the same settings, the spec sofnode
// builds from its flags and the spec the harness builds from its Options
// give every order process the same core.Config (hooks and registry
// aside), so what bench/ measures on the harness is what the binary runs.
// The intended differences are listed, not tolerated silently.
func TestSpecParityWithHarness(t *testing.T) {
	for _, proto := range []types.Protocol{types.SC, types.SCR} {
		dir := t.TempDir()
		c, err := harness.New(harness.Options{
			Protocol: proto, F: 1,
			BatchInterval: 5 * time.Millisecond, Delta: 2 * time.Second,
			MaxInflightBatches: 8, DigestOnlyAcks: true,
			CheckpointInterval: 16,
			Ingress:            ingress.Config{Enabled: true, Rate: -1, MaxClientPending: 32},
			Mirror:             true, DumbOptimization: true, // the shipped entry points' choice
			Live: true, Transport: types.TransportTCP,
			AuthFrames: true, SessionResume: true,
			Durable: true, DataDir: dir, Groups: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.Stop()

		// intended: fields where the two specs differ on purpose.
		intended := map[string]string{}
		if proto == types.SC {
			intended["RecoveryInterval"] = "sofnode always passes -delta; core reads it under SCR only, where the harness defaults to Delta too"
		}
		for _, id := range c.Topo.AllProcesses() {
			cfg := parseFlags([]string{
				"-id", fmt.Sprint(int32(id)), "-f", "1", "-protocol", strings.ToLower(proto.String()),
				"-batch", "5ms", "-delta", "2s", "-inflight", "8", "-digest-acks",
				"-ckpt-interval", "16", "-ingress", "-ingress-rate", "-1", "-ingress-pending", "32",
				"-auth", "-resume", "-data-dir", dir, "-groups", "2",
			})
			dealt, err := node.DealFromSecret(crypto.SuiteName(cfg.suite), cfg.secret, c.Topo, true, false)
			if err != nil {
				t.Fatal(err)
			}
			binary, bench := cfg.spec(proto, c.Topo, dealt), c.NodeSpec(id)
			if binary.Resume != bench.Resume || binary.RingLen != bench.RingLen ||
				binary.ViewChangeTimeout != bench.ViewChangeTimeout || (binary.Links == nil) != (bench.Links == nil) {
				t.Errorf("%v node %v: transport settings differ: sofnode %+v, harness %+v", proto, id, binary, bench)
			}
			for g := 0; g < 2; g++ {
				a, b := reflect.ValueOf(stripped(binary.CoreConfig(g))), reflect.ValueOf(stripped(bench.CoreConfig(g)))
				for i := 0; i < a.NumField(); i++ {
					name := a.Type().Field(i).Name
					equal := reflect.DeepEqual(a.Field(i).Interface(), b.Field(i).Interface())
					if _, ok := intended[name]; ok == equal {
						t.Errorf("%v node %v group %d: core.Config.%s: sofnode %v, harness %v (intended difference: %v)",
							proto, id, g, name, a.Field(i), b.Field(i), ok)
					}
				}
			}
		}
	}
}

// stripped drops what legitimately belongs to the embedding program:
// its event hooks and its registry.
func stripped(cfg core.Config) core.Config {
	cfg.OnBatched, cfg.OnCommit, cfg.OnFailSignal = nil, nil, nil
	cfg.OnInstalled, cfg.OnStartTuplesIssued, cfg.OnPairRecovered = nil, nil, nil
	cfg.Metrics = nil
	return cfg
}
