package crypto

import (
	cryptorand "crypto/rand"
	"fmt"
	"io"
	"sync"

	"github.com/sof-repro/sof/internal/types"
)

// Keyring holds the public keys of every process and client, as installed
// by the trusted dealer (Assumption 2). A Keyring is populated during
// system initialisation and is read-only afterwards; Verify may be called
// concurrently.
type Keyring struct {
	suite Suite

	mu   sync.RWMutex
	pubs map[types.NodeID]PublicKey
}

// NewKeyring returns an empty keyring for the suite.
func NewKeyring(suite Suite) *Keyring {
	return &Keyring{suite: suite, pubs: make(map[types.NodeID]PublicKey)}
}

// Suite returns the keyring's signature suite.
func (kr *Keyring) Suite() Suite { return kr.suite }

// Add installs the public key for id, replacing any previous key.
func (kr *Keyring) Add(id types.NodeID, pub PublicKey) {
	kr.mu.Lock()
	defer kr.mu.Unlock()
	kr.pubs[id] = pub
}

// PublicKey returns the public key for id.
func (kr *Keyring) PublicKey(id types.NodeID) (PublicKey, bool) {
	kr.mu.RLock()
	defer kr.mu.RUnlock()
	pub, ok := kr.pubs[id]
	return pub, ok
}

// Verify checks that sig is signer's signature over digest.
func (kr *Keyring) Verify(signer types.NodeID, digest []byte, sig Signature) error {
	pub, ok := kr.PublicKey(signer)
	if !ok {
		return fmt.Errorf("crypto: no public key for %v", signer)
	}
	if err := kr.suite.Verify(pub, digest, sig); err != nil {
		return fmt.Errorf("crypto: signature of %v: %w", signer, err)
	}
	return nil
}

// Identity is one process's signing identity: its private key plus the
// shared keyring. Identities are safe for concurrent use.
type Identity struct {
	id   types.NodeID
	priv PrivateKey
	ring *Keyring
	rng  io.Reader
}

// NewIdentity binds a private key to a process ID and keyring. rng defaults
// to crypto/rand.Reader when nil.
func NewIdentity(id types.NodeID, priv PrivateKey, ring *Keyring, rng io.Reader) *Identity {
	if rng == nil {
		rng = cryptorand.Reader
	}
	return &Identity{id: id, priv: priv, ring: ring, rng: rng}
}

// ID returns the process this identity signs as.
func (id *Identity) ID() types.NodeID { return id.id }

// Suite returns the signature suite.
func (id *Identity) Suite() Suite { return id.ring.Suite() }

// Digest computes the suite digest of data.
func (id *Identity) Digest(data []byte) []byte { return id.ring.Suite().Digest(data) }

// AppendDigest appends the suite digest of data to dst.
func (id *Identity) AppendDigest(dst, data []byte) []byte {
	return id.ring.Suite().AppendDigest(dst, data)
}

// Sign signs a digest as this process.
func (id *Identity) Sign(digest []byte) (Signature, error) {
	return id.ring.Suite().Sign(id.rng, id.priv, digest)
}

// AppendSign appends this process's signature over digest to dst.
func (id *Identity) AppendSign(dst, digest []byte) ([]byte, error) {
	return id.ring.Suite().AppendSign(dst, id.rng, id.priv, digest)
}

// Verify checks another process's signature via the shared keyring.
func (id *Identity) Verify(signer types.NodeID, digest []byte, sig Signature) error {
	return id.ring.Verify(signer, digest, sig)
}
