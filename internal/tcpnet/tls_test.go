package tcpnet

import (
	"bytes"
	"crypto/tls"
	"encoding/binary"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/sof-repro/sof/internal/types"
)

// TestDevTLSDeterministic checks the identity derivation contract: two
// endpoints holding the same secret derive byte-identical certificates
// (so independently-derived self-signed roots verify each other), and
// different secrets derive different ones.
func TestDevTLSDeterministic(t *testing.T) {
	s1, _, err := DevTLS("alpha")
	if err != nil {
		t.Fatal(err)
	}
	s2, _, err := DevTLS("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s1.Certificates[0].Certificate[0], s2.Certificates[0].Certificate[0]) {
		t.Error("same secret derived different certificates")
	}
	s3, _, err := DevTLS("beta")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(s1.Certificates[0].Certificate[0], s3.Certificates[0].Certificate[0]) {
		t.Error("different secrets derived the same certificate")
	}
}

// TestTransportTLSDelivery runs the peer path over TLS: both transports
// derive the identity from the shared secret independently and frames
// flow as in plaintext.
func TestTransportTLSDelivery(t *testing.T) {
	srvA, cliA, err := DevTLS("cluster-secret")
	if err != nil {
		t.Fatal(err)
	}
	srvB, cliB, err := DevTLS("cluster-secret")
	if err != nil {
		t.Fatal(err)
	}
	a, ach := listenT(t, 0, Options{TLSServer: srvA, TLSClient: cliA})
	b, bch := listenT(t, 1, Options{TLSServer: srvB, TLSClient: cliB})
	a.SetPeers(map[types.NodeID]string{1: b.Addr()})
	b.SetPeers(map[types.NodeID]string{0: a.Addr()})

	payload := []byte("over the wire, under the handshake")
	if !a.Send(1, payload) {
		t.Fatal("send rejected")
	}
	select {
	case f := <-bch:
		if f.from != 0 || !bytes.Equal(f.raw, payload) {
			t.Fatalf("bad frame: from %v raw %q", f.from, f.raw)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("frame not delivered over TLS within 5s")
	}
	// And the reverse direction, exercising b's dial side.
	if !b.Send(0, payload) {
		t.Fatal("reverse send rejected")
	}
	select {
	case f := <-ach:
		if f.from != 1 || !bytes.Equal(f.raw, payload) {
			t.Fatalf("bad reverse frame: from %v raw %q", f.from, f.raw)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reverse frame not delivered over TLS within 5s")
	}
}

// TestTLSRejectsPlaintextClient checks a plaintext dial against a TLS
// listener fails cleanly instead of corrupting the stream: a well-formed
// v1 hello and frame written in the clear deliver nothing.
func TestTLSRejectsPlaintextClient(t *testing.T) {
	srv, _, err := DevTLS("mixed-secret")
	if err != nil {
		t.Fatal(err)
	}
	node, ch := listenT(t, 0, Options{TLSServer: srv})
	conn, err := net.DialTimeout("tcp", node.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := binary.BigEndian.AppendUint32(nil, uint32(int32(types.ClientID(0))))
	// The write may succeed locally; delivery must not happen.
	_, _ = conn.Write(AppendFrame(hello, []byte("plaintext into a tls port")))
	select {
	case f := <-ch:
		t.Fatalf("TLS listener delivered a plaintext frame: %q", f.raw)
	case <-time.After(time.Second):
	}
}

// TestTLSWrongSecretFailsHandshake checks certificate verification is
// real: a client holding a different secret trusts a different root, so
// the handshake must fail with a verification error.
func TestTLSWrongSecretFailsHandshake(t *testing.T) {
	srv, _, err := DevTLS("right-secret")
	if err != nil {
		t.Fatal(err)
	}
	_, wrongCli, err := DevTLS("wrong-secret")
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 4096)
				for {
					if _, err := c.Read(buf); err != nil {
						return
					}
				}
			}(tls.Server(conn, srv))
		}
	}()
	raw, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	tc := tls.Client(raw, wrongCli)
	_ = tc.SetDeadline(time.Now().Add(2 * time.Second))
	if err := tc.Handshake(); err == nil {
		t.Fatal("handshake with a mismatched root succeeded")
	} else if !strings.Contains(err.Error(), "certificate") && !strings.Contains(err.Error(), "x509") {
		t.Logf("handshake failed (as required) with: %v", err)
	}
}
