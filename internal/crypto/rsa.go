package crypto

import (
	cryptostd "crypto"
	"crypto/md5"
	"crypto/rsa"
	"fmt"
	"io"
)

// rsaSuite implements MD5 digests with PKCS#1 v1.5 RSA signatures, matching
// the paper's "MD5 for taking message digests together with RSA scheme for
// key sizes of 1024 and 1536".
//
// MD5 and RSA-1024 are obsolete by modern standards; they are implemented
// here because the reproduction targets the paper's 2006 configuration, not
// because they are recommended.
type rsaSuite struct {
	bits int
	name SuiteName
}

var _ Suite = (*rsaSuite)(nil)

// NewRSASuite returns the MD5+RSA suite for the given key size (1024 or
// 1536 bits).
func NewRSASuite(bits int) (Suite, error) {
	switch bits {
	case 1024:
		return &rsaSuite{bits: bits, name: MD5RSA1024}, nil
	case 1536:
		return &rsaSuite{bits: bits, name: MD5RSA1536}, nil
	default:
		return nil, fmt.Errorf("crypto: unsupported RSA key size %d (want 1024 or 1536)", bits)
	}
}

func (s *rsaSuite) Name() SuiteName { return s.name }

func (s *rsaSuite) Digest(data []byte) []byte { return s.AppendDigest(nil, data) }

func (s *rsaSuite) AppendDigest(dst, data []byte) []byte {
	d := md5.Sum(data)
	return append(dst, d[:]...)
}

func (s *rsaSuite) DigestSize() int { return md5.Size }

func (s *rsaSuite) GenerateKey(rng io.Reader) (PrivateKey, PublicKey, error) {
	key, err := rsa.GenerateKey(rng, s.bits)
	if err != nil {
		return nil, nil, fmt.Errorf("crypto: RSA-%d key generation: %w", s.bits, err)
	}
	return key, &key.PublicKey, nil
}

func (s *rsaSuite) Sign(rng io.Reader, priv PrivateKey, digest []byte) (Signature, error) {
	key, ok := priv.(*rsa.PrivateKey)
	if !ok {
		return nil, fmt.Errorf("%w: want *rsa.PrivateKey, got %T", ErrWrongKeyType, priv)
	}
	sig, err := rsa.SignPKCS1v15(rng, key, cryptostd.MD5, digest)
	if err != nil {
		return nil, fmt.Errorf("crypto: RSA sign: %w", err)
	}
	return sig, nil
}

// AppendSign copies Sign's result: the standard library offers no append
// form, and an RSA signature dwarfs the copy.
func (s *rsaSuite) AppendSign(dst []byte, rng io.Reader, priv PrivateKey, digest []byte) ([]byte, error) {
	sig, err := s.Sign(rng, priv, digest)
	return append(dst, sig...), err
}

func (s *rsaSuite) Verify(pub PublicKey, digest []byte, sig Signature) error {
	key, ok := pub.(*rsa.PublicKey)
	if !ok {
		return fmt.Errorf("%w: want *rsa.PublicKey, got %T", ErrWrongKeyType, pub)
	}
	if err := rsa.VerifyPKCS1v15(key, cryptostd.MD5, digest, sig); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSignature, err)
	}
	return nil
}

func (s *rsaSuite) SignatureSize() int { return s.bits / 8 }

func (s *rsaSuite) Costs() CostModel { return CostModel{} }
