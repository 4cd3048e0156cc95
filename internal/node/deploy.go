package node

import (
	"crypto/tls"
	"fmt"
	"strings"

	"github.com/sof-repro/sof/internal/core"
	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/shard"
	"github.com/sof-repro/sof/internal/tcpnet"
	"github.com/sof-repro/sof/internal/types"
)

// Mode is a deployment's choices whose combinations are constrained, its
// ordering knobs among them; Check is the one validation of a deployment
// for every entry point (sof.NewCluster and the harness, sofnode).
type Mode struct {
	Protocol types.Protocol
	// Knobs are the deployment's ordering knobs, defaults applied.
	Knobs core.Knobs
	// Live is any real-time substrate; Transport is its medium.
	Live      bool
	Transport types.Transport
	Groups    int
	// Shaping, TLS and RingLen (the bound on a session's retransmission
	// ring) are properties of the TCP transport.
	Shaping, TLS bool
	RingLen      int
	Durable      bool
	DataDir      string
	Adversaries  bool
}

// Check rejects the knob values no order process accepts and the
// combinations no substrate supports.
func (m Mode) Check() error {
	if err := m.Knobs.Check(m.Protocol); err != nil {
		return err
	}
	paired := m.Protocol == types.SC || m.Protocol == types.SCR
	tcp := m.Live && m.Transport == types.TransportTCP
	for _, rule := range []struct {
		on, met    bool
		what, need string
	}{
		{m.Transport == types.TransportTCP, m.Live, "the TCP transport", "a live cluster (the simulator has its own substrate)"},
		{m.RingLen != 0, tcp, "SessionRingLen", "the live TCP transport"},
		{m.Shaping, tcp, "network shaping", "the live TCP transport"},
		{m.TLS, tcp, "TLS", "the live TCP transport"},
		{m.Groups > 1, tcp, "Groups > 1", "the live TCP transport"},
		{m.Groups > 1, paired, "Groups > 1", "the SC/SCR protocols"},
		{m.Adversaries, paired, "Adversaries", "the SC/SCR protocols"},
		{m.Durable, m.Live, "Durable", "a live cluster (the simulator has no disk)"},
		{m.Durable, m.DataDir != "", "Durable", "DataDir"},
		{m.DataDir != "", m.Durable, "DataDir", "Durable"},
		{m.Knobs.CheckpointInterval != 0, m.Durable, "CheckpointInterval", "Durable (a data directory)"},
	} {
		if rule.on && !rule.met {
			return fmt.Errorf("node: %s requires %s", rule.what, rule.need)
		}
	}
	if m.Groups < 1 || m.Groups > shard.MaxGroups {
		return fmt.Errorf("node: Groups %d outside [1, %d]", m.Groups, shard.MaxGroups)
	}
	return nil
}

// PeerAddrs maps a comma-separated address list — sofnode's and
// sofclient's -peers, index = node ID — onto topo's order processes.
func PeerAddrs(list string, topo types.Topology) (map[types.NodeID]string, error) {
	addrs := strings.Split(list, ",")
	if len(addrs) != topo.N() {
		return nil, fmt.Errorf("node: need %d peer addresses, got %d", topo.N(), len(addrs))
	}
	peers := make(map[types.NodeID]string, len(addrs))
	for i, a := range addrs {
		peers[types.NodeID(i)] = strings.TrimSpace(a)
	}
	return peers, nil
}

// SecretClients is how many client identities a secret-provisioned
// deployment deals after its order processes.
const SecretClients = 16

// Dealt is the key material every endpoint of a secret-provisioned
// deployment derives for itself.
type Dealt struct {
	Idents map[types.NodeID]*crypto.Identity
	// Links authenticates every frame; the TLS pair is nil without TLS.
	Links                *crypto.LinkKeys
	TLSServer, TLSClient *tls.Config
}

// DealFromSecret stands in for the paper's trusted dealer across OS
// processes: every node and client runs it with the same arguments and
// derives identical keys, because the dealer draws from one deterministic
// stream in one fixed order — identities for the order processes, then
// SecretClients clients, then the link keys. The DevTLS certificate
// derives from the secret alone.
func DealFromSecret(suite crypto.SuiteName, secret string, topo types.Topology, useTLS bool) (*Dealt, error) {
	impl, err := crypto.ByName(suite)
	if err != nil {
		return nil, err
	}
	ids := topo.AllProcesses()
	for k := 0; k < SecretClients; k++ {
		ids = append(ids, types.ClientID(k))
	}
	dealer := crypto.NewDealer(impl, crypto.WithRand(crypto.NewDRBG(secret)))
	d := &Dealt{}
	if d.Idents, _, err = dealer.Issue(ids); err != nil {
		return nil, err
	}
	if d.Links, err = dealer.IssueLinks(); err != nil {
		return nil, err
	}
	if useTLS {
		if d.TLSServer, d.TLSClient, err = tcpnet.DevTLS(secret); err != nil {
			return nil, err
		}
	}
	return d, nil
}
