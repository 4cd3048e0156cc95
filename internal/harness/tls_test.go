package harness

import (
	"fmt"
	"testing"
	"time"

	"github.com/sof-repro/sof/internal/types"
)

// TestClusterTLSRoundTrip orders requests over a live TCP cluster with
// DevTLS on: every link — peer-to-peer and client-to-node — handshakes
// before frames flow, and commits land exactly as in plaintext.
func TestClusterTLSRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP integration test")
	}
	c, err := New(Options{
		Protocol:      types.SC,
		F:             1,
		BatchInterval: 5 * time.Millisecond,
		Live:          true,
		Transport:     types.TransportTCP,
		TLS:           true,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	for i := 0; i < 20; i++ {
		id, err := c.Submit(0, []byte(fmt.Sprintf("tls-req-%02d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if c.AwaitCommit(20*time.Second, id) != 0 {
			t.Fatalf("request %d never committed over TLS", i)
		}
	}
}

// TestClusterTLSRequiresLiveTCP pins the validation: DevTLS wraps real
// sockets, so the option is rejected on the simulated transports.
func TestClusterTLSRequiresLiveTCP(t *testing.T) {
	if _, err := New(Options{Protocol: types.SC, F: 1, TLS: true}); err == nil {
		t.Error("TLS on the simulated transport accepted")
	}
	if _, err := New(Options{Protocol: types.SC, F: 1, TLS: true, Live: true}); err == nil {
		t.Error("TLS on the in-process live transport accepted")
	}
}
