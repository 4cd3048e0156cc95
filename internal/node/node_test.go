package node

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/sof-repro/sof/internal/core"
	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/ingress"
	"github.com/sof-repro/sof/internal/obs"
	"github.com/sof-repro/sof/internal/types"
)

func testSpec(t *testing.T, proto types.Protocol, self types.NodeID, groups int) Spec {
	t.Helper()
	topo, err := types.NewTopology(proto, 1)
	if err != nil {
		t.Fatal(err)
	}
	dealt, err := DealFromSecret(crypto.HMACSHA256, "node-test", topo, false)
	if err != nil {
		t.Fatal(err)
	}
	return Spec{
		Self: self, Protocol: proto, Topo: topo, Groups: groups, Idents: dealt.Idents,
		Knobs: core.Knobs{BatchInterval: 5 * time.Millisecond, MaxBatchBytes: 1024, Delta: time.Second},
		Links: dealt.Links,
	}
}

func isDir(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.IsDir()
}

// TestBuildPerProtocol: every protocol yields one process and one pool
// per group; every protocol but BFT runs on a core process — with or
// without a reply-to set, whose executor stands in front of the order
// process. A CT process is never paired.
func TestBuildPerProtocol(t *testing.T) {
	for i, proto := range []types.Protocol{types.SC, types.SCR, types.BFT, types.CT, types.SC, types.BFT} {
		spec := testSpec(t, proto, 0, 1)
		if i >= 4 {
			spec.ReplyTo = map[types.NodeID]bool{types.ClientID(0): true}
		}
		n, err := Build(spec)
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		if len(n.Procs) != 1 || n.Pool(0) == nil {
			t.Errorf("%v: %d processes, pool %v", proto, len(n.Procs), n.Pool(0))
		}
		if (n.Core(0) != nil) != (proto != types.BFT) {
			t.Errorf("%v: Core(0) = %v", proto, n.Core(0))
		}
		if p := n.Core(0); proto == types.CT && p != nil && p.Pair() != nil {
			t.Errorf("CT: process %v is paired", spec.Self)
		}
		if n.Core(1) != nil || n.Pool(-1) != nil {
			t.Errorf("%v: out-of-range group resolved", proto)
		}
		n.Close()
	}
}

// TestClientEndpoint: a Self outside the topology hosts no processes but
// still gets its session journal and transport options.
func TestClientEndpoint(t *testing.T) {
	spec := testSpec(t, types.SC, types.ClientID(0), 2)
	spec.DataDir = t.TempDir()
	n, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if len(n.Procs) != 0 {
		t.Errorf("client endpoint hosts %d processes", len(n.Procs))
	}
	if !isDir(filepath.Join(spec.DataDir, "session")) {
		t.Error("client endpoint has no session journal")
	}
	if o := n.TCPOptions(); o.Session == nil || o.Session.Journal == nil {
		t.Errorf("client transport options lack the journalled session: %+v", o.Session)
	}
	if err := n.Ready(nil); err != nil {
		t.Errorf("client endpoint not ready: %v", err)
	}
}

// TestListenRequiresLinks: every TCP endpoint speaks authenticated
// session frames, so Listen refuses a spec without link keys.
func TestListenRequiresLinks(t *testing.T) {
	spec := testSpec(t, types.SC, 0, 1)
	spec.Links = nil
	n, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if tcp, err := n.Listen("127.0.0.1:0", nil, n.Procs, nil); err == nil {
		tcp.Stop()
		t.Fatal("Listen accepted a spec without link keys")
	}
}

// TestDataDirLayout pins sofnode's on-disk layout, which existing nodes
// restart against: <dir>/session, <dir>/proto, and <dir>/g<i>/proto when
// sharded; a negative CheckpointInterval opens no checkpoint store, and
// a node without link keys — an in-process substrate's — has no session
// journal.
func TestDataDirLayout(t *testing.T) {
	for _, tc := range []struct {
		name            string
		groups, ckpt    int
		links           bool
		present, absent []string
	}{
		{"single", 1, 0, true, []string{"session", "proto"}, []string{"g0"}},
		{"sharded", 2, 0, true, []string{"session", "g0/proto", "g1/proto"}, []string{"proto"}},
		{"no-checkpoints", 1, -1, true, []string{"session"}, []string{"proto"}},
		{"in-process", 1, 0, false, []string{"proto"}, []string{"session"}},
	} {
		spec := testSpec(t, types.SC, 0, tc.groups)
		spec.DataDir = t.TempDir()
		spec.CheckpointInterval = tc.ckpt
		if !tc.links {
			spec.Links = nil
		}
		n, err := Build(spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, d := range tc.present {
			if !isDir(filepath.Join(spec.DataDir, d)) {
				t.Errorf("%s: %s missing", tc.name, d)
			}
		}
		for _, d := range tc.absent {
			if isDir(filepath.Join(spec.DataDir, d)) {
				t.Errorf("%s: %s should not exist", tc.name, d)
			}
		}
		if err := n.Sync(); err != nil {
			t.Errorf("%s: Sync: %v", tc.name, err)
		}
		n.Crash()
		n.Close() // releasing twice is harmless
		if err := n.Sync(); err != nil {
			t.Errorf("%s: Sync after release: %v", tc.name, err)
		}
	}
}

// TestReadyWithoutRegistry is the metrics-off readiness regression: a
// durable SC process is born catching up (it holds that state until its
// catch-up round completes after Start), and Ready must say so with no
// registry wired.
func TestReadyWithoutRegistry(t *testing.T) {
	spec := testSpec(t, types.SC, 0, 2)
	spec.DataDir = t.TempDir()
	n, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.Ready(nil); err == nil || !strings.Contains(err.Error(), "catching up") {
		t.Errorf("Ready with a group catching up and no registry = %v, want a catching-up error", err)
	}
	// Without durable checkpoints there is nothing to catch up on.
	spec.DataDir = ""
	fresh, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Ready(nil); err != nil {
		t.Errorf("non-durable node not ready: %v", err)
	}
}

func TestLabels(t *testing.T) {
	if got := Labels(3, 1, 1); !reflect.DeepEqual(got, []obs.Label{obs.L("node", "n3")}) {
		t.Errorf("single-group labels = %v", got)
	}
	if got := Labels(3, 1, 4); !reflect.DeepEqual(got, []obs.Label{obs.L("node", "n3"), obs.L("group", "1")}) {
		t.Errorf("sharded labels = %v", got)
	}
}

// TestCoreConfigCoversEveryField fails when core.Config grows a field the
// spec does not carry: every field must either come out of CoreConfig
// non-zero for a fully populated spec, or be one Build supplies.
func TestCoreConfigCoversEveryField(t *testing.T) {
	spec := testSpec(t, types.SC, 0, 2)
	spec.Mirror = true
	spec.PadBacklogBytes, spec.CheckpointInterval, spec.MaxInflightBatches = 1, 2, 3
	spec.RecoveryInterval = time.Second
	spec.Ingress = ingress.Config{Enabled: true}
	spec.Registry = obs.NewRegistry()
	spec.Tap = noTap{}
	spec.Hooks = func(int) Hooks {
		return Hooks{
			OnBatched:           func(core.BatchEvent) {},
			OnCommit:            func(core.CommitEvent) {},
			OnFailSignal:        func(core.FailSignalEvent) {},
			OnInstalled:         func(core.InstallEvent) {},
			OnStartTuplesIssued: func(core.InstallEvent) {},
			OnPairRecovered:     func(core.InstallEvent) {},
		}
	}
	builtByBuild := map[string]bool{"Checkpointer": true, "PresignedFailSig": true}
	cfg := reflect.ValueOf(spec.CoreConfig(0))
	for i := 0; i < cfg.NumField(); i++ {
		name := cfg.Type().Field(i).Name
		if cfg.Field(i).IsZero() != builtByBuild[name] {
			t.Errorf("core.Config.%s: zero=%v from a fully populated spec", name, cfg.Field(i).IsZero())
		}
	}
	if spec.CoreConfig(1).Tap != nil {
		t.Error("tap attached beyond group 0")
	}
	if got := spec.CoreConfig(1).Topo; got != spec.Topo.Rotated(1) {
		t.Errorf("group 1 topology = %+v, want the rotation by 1", got)
	}
}

type noTap struct{ core.Tap }

func TestModeCheck(t *testing.T) {
	ok := Mode{Protocol: types.SC, Knobs: core.Knobs{}.WithDefaults(), Live: true, Transport: types.TransportTCP, Groups: 1}
	if err := ok.Check(); err != nil {
		t.Fatalf("baseline mode rejected: %v", err)
	}
	// CT runs on the core process, so it takes the window and ingress.
	ct := ok
	ct.Protocol, ct.Knobs.MaxInflightBatches, ct.Knobs.Ingress = types.CT, 8, ingress.Config{Enabled: true}
	if err := ct.Check(); err != nil {
		t.Errorf("pipelined CT with ingress rejected: %v", err)
	}
	inProcess := types.TransportInProcess
	for name, mutate := range map[string]func(*Mode){
		"tcp simulated":           func(m *Mode) { m.Live = false },
		"ring off tcp":            func(m *Mode) { m.Transport, m.RingLen = inProcess, 8 },
		"shaping off tcp":         func(m *Mode) { m.Transport, m.Shaping = inProcess, true },
		"tls off tcp":             func(m *Mode) { m.Transport, m.TLS = inProcess, true },
		"groups off tcp":          func(m *Mode) { m.Transport, m.Groups = inProcess, 2 },
		"groups zero":             func(m *Mode) { m.Groups = 0 },
		"groups over cap":         func(m *Mode) { m.Groups = 1 << 20 },
		"groups under bft":        func(m *Mode) { m.Protocol, m.Groups = types.BFT, 2 },
		"ingress under bft":       func(m *Mode) { m.Protocol, m.Knobs.Ingress = types.BFT, ingress.Config{Enabled: true} },
		"groups under ct":         func(m *Mode) { m.Protocol, m.Groups = types.CT, 2 },
		"adversary ct":            func(m *Mode) { m.Protocol, m.Adversaries = types.CT, true },
		"ingress invalid":         func(m *Mode) { m.Knobs.Ingress = ingress.Config{Enabled: true, RatePeriod: -1} },
		"pipeline under bft":      func(m *Mode) { m.Protocol, m.Knobs.MaxInflightBatches = types.BFT, 8 },
		"negative window":         func(m *Mode) { m.Knobs.MaxInflightBatches = -1 },
		"no batch interval":       func(m *Mode) { m.Knobs.BatchInterval = 0 },
		"adversary bft":           func(m *Mode) { m.Protocol, m.Adversaries = types.BFT, true },
		"durable simulated":       func(m *Mode) { m.Live, m.Transport, m.Durable, m.DataDir = false, inProcess, true, "x" },
		"durable no datadir":      func(m *Mode) { m.Durable = true },
		"datadir not durable":     func(m *Mode) { m.DataDir = "x" },
		"checkpoints not durable": func(m *Mode) { m.Knobs.CheckpointInterval = 4 },
	} {
		m := ok
		mutate(&m)
		if err := m.Check(); err == nil {
			t.Errorf("%s: accepted %+v", name, m)
		}
	}
}

// TestDealFromSecretIsDeterministic: two endpoints that run the deal with
// the same arguments hold the same keys (the property sofnode and
// sofclient rely on), and a different secret yields different ones.
func TestDealFromSecretIsDeterministic(t *testing.T) {
	topo, _ := types.NewTopology(types.SC, 1)
	deal := func(secret string) *Dealt {
		d, err := DealFromSecret(crypto.HMACSHA256, secret, topo, true)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a, b, other := deal("s"), deal("s"), deal("t")
	if len(a.Idents) != topo.N()+SecretClients {
		t.Fatalf("dealt %d identities, want %d", len(a.Idents), topo.N()+SecretClients)
	}
	msg := []byte("m")
	sig, err := a.Idents[0].Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Idents[types.ClientID(3)].Verify(0, msg, sig); err != nil {
		t.Errorf("same secret, signature does not verify across endpoints: %v", err)
	}
	if err := other.Idents[types.ClientID(3)].Verify(0, msg, sig); err == nil {
		t.Error("a different secret verified the signature")
	}
	key := func(d *Dealt) string { return string(d.Links.DirKeyUncached(0, 1)) }
	if key(a) != key(b) || key(a) == key(other) {
		t.Error("link keys are not a function of the secret alone")
	}
	if a.TLSServer == nil || a.TLSClient == nil {
		t.Error("no DevTLS pair dealt")
	}
	if noTLS, _ := DealFromSecret(crypto.HMACSHA256, "s", topo, false); noTLS.Links == nil || noTLS.TLSServer != nil {
		t.Error("without TLS the deal must still hold link keys, and no TLS pair")
	}
}
