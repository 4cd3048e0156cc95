package crypto

import (
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"sync"
)

// hmacSuite is the symmetric authentication suite: SHA-256 digests and
// HMAC-SHA256 "signatures". It is the default suite of sofnode, sof.Config
// and the harness (so of bench/): every number measured on the TCP path is
// measured under it, while the paper's RSA/DSA suites stay selectable for
// the figures.
//
// The trust model is the dealer's (Assumption 2). The "public key" of a
// node is its HMAC secret, distributed to every process by the trusted
// dealer, so any process the dealer initialised can verify — and forge —
// any other's MAC. The suite therefore authenticates messages against
// outsiders and against honest mistakes, but gives no non-repudiation
// between dealt processes, which the paper's double-signing relies on
// against *Byzantine* signers. A deployment that must attribute faults to
// a Byzantine order process selects an RSA or DSA suite (sofnode -suite,
// sof.Config.Suite); tests that exercise adversarial signature checking
// do the same.
type hmacSuite struct{}

var _ Suite = (*hmacSuite)(nil)

// NewHMACSuite returns the HMAC-SHA256 suite.
func NewHMACSuite() Suite { return &hmacSuite{} }

func (s *hmacSuite) Name() SuiteName { return HMACSHA256 }

func (s *hmacSuite) Digest(data []byte) []byte { return s.AppendDigest(nil, data) }

func (s *hmacSuite) AppendDigest(dst, data []byte) []byte {
	d := sha256.Sum256(data)
	return append(dst, d[:]...)
}

func (s *hmacSuite) DigestSize() int { return sha256.Size }

// hmacKey is the shared secret; it serves as both the private and the
// public key. It owns the keyed HMAC states computed under it: keying a
// state costs six heap objects and two SHA-256 blocks that depend on the
// secret alone, so states are pooled and Reset instead of rebuilt per
// MAC. The pool is per key — a state is never handed to another key's
// Sign or Verify.
type hmacKey struct {
	secret []byte
	states sync.Pool // of *hmacState keyed with secret
}

// hmacState is one reusable keyed HMAC-SHA256 state and the scratch Verify
// sums into.
type hmacState struct {
	h   hash.Hash
	sum [sha256.Size]byte
}

func newHMACKey(secret []byte) *hmacKey {
	k := &hmacKey{secret: secret}
	k.states.New = func() any { return &hmacState{h: hmac.New(sha256.New, k.secret)} }
	return k
}

// mac returns a state holding HMAC(secret, digest), ready for Sum. The
// caller puts it back into k.states when done with the sum.
func (k *hmacKey) mac(digest []byte) *hmacState {
	st := k.states.Get().(*hmacState)
	st.h.Reset() // a pooled state still holds its previous message
	st.h.Write(digest)
	return st
}

func (s *hmacSuite) GenerateKey(rng io.Reader) (PrivateKey, PublicKey, error) {
	secret := make([]byte, 32)
	if _, err := io.ReadFull(rng, secret); err != nil {
		return nil, nil, fmt.Errorf("crypto: HMAC key generation: %w", err)
	}
	k := newHMACKey(secret)
	return k, k, nil
}

func (s *hmacSuite) Sign(rng io.Reader, priv PrivateKey, digest []byte) (Signature, error) {
	return s.AppendSign(nil, rng, priv, digest)
}

func (s *hmacSuite) AppendSign(dst []byte, _ io.Reader, priv PrivateKey, digest []byte) ([]byte, error) {
	k, ok := priv.(*hmacKey)
	if !ok {
		return dst, fmt.Errorf("%w: want hmac key, got %T", ErrWrongKeyType, priv)
	}
	st := k.mac(digest)
	dst = st.h.Sum(dst)
	k.states.Put(st)
	return dst, nil
}

func (s *hmacSuite) Verify(pub PublicKey, digest []byte, sig Signature) error {
	k, ok := pub.(*hmacKey)
	if !ok {
		return fmt.Errorf("%w: want hmac key, got %T", ErrWrongKeyType, pub)
	}
	st := k.mac(digest)
	match := hmac.Equal(st.h.Sum(st.sum[:0]), sig)
	k.states.Put(st)
	if !match {
		return ErrBadSignature
	}
	return nil
}

func (s *hmacSuite) SignatureSize() int { return sha256.Size }

func (s *hmacSuite) Costs() CostModel { return CostModel{} }
