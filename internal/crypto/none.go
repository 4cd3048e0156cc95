package crypto

import (
	"crypto/sha256"
	"io"
)

// noneSuite performs no signing at all. The CT baseline of the paper is
// "simply derived from SC, with no process being paired and no
// cryptographic techniques used"; this suite makes that configuration
// expressible without special cases in protocol code. Digests are still
// real (SHA-256) because the protocols identify requests by digest.
type noneSuite struct{}

var _ Suite = (*noneSuite)(nil)

// NewNoneSuite returns the no-op signature suite.
func NewNoneSuite() Suite { return &noneSuite{} }

func (s *noneSuite) Name() SuiteName { return NoneSuite }

func (s *noneSuite) Digest(data []byte) []byte { return s.AppendDigest(nil, data) }

func (s *noneSuite) AppendDigest(dst, data []byte) []byte {
	d := sha256.Sum256(data)
	return append(dst, d[:]...)
}

func (s *noneSuite) DigestSize() int { return sha256.Size }

func (s *noneSuite) GenerateKey(io.Reader) (PrivateKey, PublicKey, error) {
	return noneKey{}, noneKey{}, nil
}

type noneKey struct{}

func (s *noneSuite) Sign(_ io.Reader, _ PrivateKey, _ []byte) (Signature, error) {
	return Signature{}, nil
}

func (s *noneSuite) AppendSign(dst []byte, _ io.Reader, _ PrivateKey, _ []byte) ([]byte, error) {
	return dst, nil
}

func (s *noneSuite) Verify(_ PublicKey, _ []byte, _ Signature) error { return nil }

func (s *noneSuite) SignatureSize() int { return 0 }

func (s *noneSuite) Costs() CostModel { return CostModel{} }
