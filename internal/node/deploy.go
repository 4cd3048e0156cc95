package node

import (
	"crypto/tls"
	"fmt"
	"strings"

	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/ingress"
	"github.com/sof-repro/sof/internal/shard"
	"github.com/sof-repro/sof/internal/tcpnet"
	"github.com/sof-repro/sof/internal/types"
)

// Mode names the deployment-wide choices whose combinations are
// constrained; Check is the one statement of those constraints for every
// entry point (sof.NewCluster and the harness, sofnode).
type Mode struct {
	Protocol types.Protocol
	// Live is any real-time substrate; TCP is the live TCP transport.
	Live, TCP bool
	Groups    int
	// AuthFrames, Shaping and TLS are properties of the TCP transport.
	AuthFrames, Shaping, TLS bool
	Ingress                  ingress.Config
	Durable                  bool
	DataDir                  string
	Adversaries              bool
}

// Check rejects the combinations no substrate supports.
func (m Mode) Check() error {
	paired := m.Protocol == types.SC || m.Protocol == types.SCR
	for _, rule := range []struct {
		on, met    bool
		what, need string
	}{
		{m.AuthFrames, m.TCP, "AuthFrames/SessionResume", "the live TCP transport"},
		{m.Shaping, m.TCP, "network shaping", "the live TCP transport"},
		{m.TLS, m.TCP, "TLS", "the live TCP transport"},
		{m.Groups > 1, m.TCP, "Groups > 1", "the live TCP transport"},
		{m.Groups > 1, paired, "Groups > 1", "the SC/SCR protocols"},
		{m.Ingress.Enabled, paired, "Ingress", "the SC/SCR protocols"},
		{m.Adversaries, paired, "Adversaries", "the SC/SCR protocols"},
		{m.Durable, m.Live, "Durable", "a live cluster (the simulator has no disk)"},
		{m.Durable, m.DataDir != "", "Durable", "DataDir"},
	} {
		if rule.on && !rule.met {
			return fmt.Errorf("node: %s requires %s", rule.what, rule.need)
		}
	}
	if err := m.Ingress.Validate(); err != nil {
		return fmt.Errorf("node: %w", err)
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
	// Links is nil without authenticated frames; the TLS pair is nil
	// without TLS.
	Links                *crypto.LinkKeys
	TLSServer, TLSClient *tls.Config
}

// DealFromSecret stands in for the paper's trusted dealer across OS
// processes: every node and client runs it with the same arguments and
// derives identical keys, because the dealer draws from one deterministic
// stream in one fixed order — identities for the order processes, then
// SecretClients clients, then (with auth) the link keys. The DevTLS
// certificate derives from the secret alone.
func DealFromSecret(suite crypto.SuiteName, secret string, topo types.Topology, auth, useTLS bool) (*Dealt, error) {
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
	if auth {
		if d.Links, err = dealer.IssueLinks(); err != nil {
			return nil, err
		}
	}
	if useTLS {
		if d.TLSServer, d.TLSClient, err = tcpnet.DevTLS(secret); err != nil {
			return nil, err
		}
	}
	return d, nil
}
