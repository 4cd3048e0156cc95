package main

import (
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/sof-repro/sof/internal/core"
	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/harness"
	"github.com/sof-repro/sof/internal/ingress"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/node"
	"github.com/sof-repro/sof/internal/session"
	"github.com/sof-repro/sof/internal/tcpnet"
	"github.com/sof-repro/sof/internal/types"
)

// freeAddrs reserves n loopback addresses by binding and releasing them.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

// TestClusterInProcess drives the binary's own wiring end to end: four
// run() invocations form a 4-node SC f=1 cluster on loopback with -auth
// -resume -metrics-addr, a tcpnet.Client submits one request, f+1 nodes
// answer with verifiable signed replies, and every node's /readyz is 200.
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
	sess := &session.Config{Keys: dealt.Links, Resume: true}

	// The reply listener the nodes dial back into (their -clients flag).
	type reply struct {
		from types.NodeID
		req  message.ReqID
	}
	replies := make(chan reply, 64)
	listener, err := tcpnet.Listen(me, "127.0.0.1:0", nil, log.New(io.Discard, "", 0), tcpnet.Options{Session: sess})
	if err != nil {
		t.Fatal(err)
	}
	defer listener.Close()
	listener.Start(func(from types.NodeID, frame []byte) {
		m, err := message.Decode(frame)
		if err != nil {
			return
		}
		if rep, ok := m.(*message.Reply); ok && rep.From == from && rep.VerifySig(dealt.Idents[me]) == nil {
			replies <- reply{from, message.ReqID{Client: rep.Client, ClientSeq: rep.ClientSeq}}
		}
	})

	peerAddrs, opsAddrs := freeAddrs(t, topo.N()), freeAddrs(t, topo.N())
	stop := make(chan struct{})
	done := make(chan error, topo.N())
	for i := 0; i < topo.N(); i++ {
		cfg := parseFlags([]string{
			"-id", fmt.Sprint(i), "-f", fmt.Sprint(f), "-protocol", "sc", "-secret", secret,
			"-peers", strings.Join(peerAddrs, ","), "-clients", listener.Addr(),
			"-batch", "5ms", "-auth", "-resume", "-metrics-addr", opsAddrs[i],
		})
		go func() { done <- run(cfg, stop) }()
	}
	stopped := false
	stopAll := func() {
		if stopped {
			return
		}
		stopped = true
		close(stop)
		for i := 0; i < topo.N(); i++ {
			if err := <-done; err != nil {
				t.Errorf("run returned %v", err)
			}
		}
	}
	defer stopAll()

	awaitOK := func(addr, path string) {
		t.Helper()
		var last string
		for deadline := time.Now().Add(15 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
			resp, err := http.Get("http://" + addr + path)
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
		t.Fatalf("%s%s never turned 200: %s", addr, path, last)
	}
	// The ops listener comes up after the node's transport: once /healthz
	// answers, the node accepts client connections. (An idle cluster dials
	// nobody, so readiness — connected to a majority — follows the first
	// request, not boot.)
	for _, addr := range opsAddrs {
		awaitOK(addr, "/healthz")
	}

	peers := make(map[types.NodeID]string, len(peerAddrs))
	for i, a := range peerAddrs {
		peers[types.NodeID(i)] = a
	}
	cl := tcpnet.NewClient(me, dealt.Idents[me], peers, tcpnet.WithSession(sess))
	defer cl.Close()
	id, reached, err := cl.Submit([]byte("one request"))
	if err != nil || reached != topo.N() {
		t.Fatalf("submit reached %d/%d processes: %v", reached, topo.N(), err)
	}
	seen := make(map[types.NodeID]bool)
	for timeout := time.After(15 * time.Second); len(seen) < f+1; {
		select {
		case r := <-replies:
			if r.req == id {
				seen[r.from] = true
			}
		case <-timeout:
			t.Fatalf("signed replies from %d nodes, want %d", len(seen), f+1)
		}
	}
	for _, addr := range opsAddrs {
		awaitOK(addr, "/readyz")
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
			MaxInflightBatches: 8, BatchIdleArm: time.Millisecond, DigestOnlyAcks: true,
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
				"-batch", "5ms", "-delta", "2s", "-inflight", "8", "-idle-arm", "1ms", "-digest-acks",
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
