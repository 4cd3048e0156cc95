package crypto

import (
	"crypto/dsa" //nolint:staticcheck // the paper's 2006 configuration uses DSA; this is a faithful reproduction.
	"crypto/sha1"
	"fmt"
	"io"
	"math/big"

	"github.com/sof-repro/sof/internal/codec"
)

// Fixed DSA L1024/N160 domain parameters, generated once with
// crypto/dsa.GenerateParameters (dsa.L1024N160) and embedded so that key
// generation does not pay the multi-second prime search at run time. DSA
// domain parameters are public and conventionally shared by a whole
// deployment, which matches the paper's trusted-dealer initialisation.
var dsaParams = dsa.Parameters{
	P: mustHexInt("d2a2393fe05ff3bb2669c9a49e3563bdccd2afeb4a5986d4afc82a5882879a6722c739e82339939675d39022ae93cd4780999f7a03511e67c7d2951e56310d57727d1511c52167d2d01191de675ac713845ba8510990d1789fe81d2b18975a47d6f5a106ff927a87f5fab3097522cea0e6d4f97c17c2feb8290ef38466930eab"),
	Q: mustHexInt("fce1126463878335c8f4fb66e1ce8676ee51b79f"),
	G: mustHexInt("3a96c15bf94340a0d2b0f027c19e40716e2a159dd9c114f4b5098f0ff34a9606dafa9dcac8326b8cdf7cd34adbb25273ad28e6ae7d3dbe8d24058374859a6fc2a0698c672bd88556a328a097b6a2f25bb980c11f9660dccb33edd226771ce02b1f49afa64184ac8715f5ee4b557f104cb4743f706a22126861e60cbb12061f90"),
}

func mustHexInt(s string) *big.Int {
	n, ok := new(big.Int).SetString(s, 16)
	if !ok {
		panic("crypto: invalid embedded DSA parameter hex")
	}
	return n
}

// dsaSuite implements SHA1 digests with DSA-1024 signatures, the paper's
// third cryptographic configuration.
type dsaSuite struct{}

var _ Suite = (*dsaSuite)(nil)

// NewDSASuite returns the SHA1+DSA-1024 suite.
func NewDSASuite() Suite { return &dsaSuite{} }

func (s *dsaSuite) Name() SuiteName { return SHA1DSA1024 }

func (s *dsaSuite) Digest(data []byte) []byte { return s.AppendDigest(nil, data) }

func (s *dsaSuite) AppendDigest(dst, data []byte) []byte {
	d := sha1.Sum(data)
	return append(dst, d[:]...)
}

func (s *dsaSuite) DigestSize() int { return sha1.Size }

func (s *dsaSuite) GenerateKey(rng io.Reader) (PrivateKey, PublicKey, error) {
	priv := &dsa.PrivateKey{}
	priv.Parameters = dsaParams
	if err := dsa.GenerateKey(priv, rng); err != nil {
		return nil, nil, fmt.Errorf("crypto: DSA key generation: %w", err)
	}
	return priv, &priv.PublicKey, nil
}

func (s *dsaSuite) Sign(rng io.Reader, priv PrivateKey, digest []byte) (Signature, error) {
	key, ok := priv.(*dsa.PrivateKey)
	if !ok {
		return nil, fmt.Errorf("%w: want *dsa.PrivateKey, got %T", ErrWrongKeyType, priv)
	}
	r, ss, err := dsa.Sign(rng, key, digest)
	if err != nil {
		return nil, fmt.Errorf("crypto: DSA sign: %w", err)
	}
	w := codec.NewWriter(64)
	w.Bytes32(r.Bytes())
	w.Bytes32(ss.Bytes())
	return w.Bytes(), nil
}

// AppendSign copies Sign's result, as the RSA suite's does.
func (s *dsaSuite) AppendSign(dst []byte, rng io.Reader, priv PrivateKey, digest []byte) ([]byte, error) {
	sig, err := s.Sign(rng, priv, digest)
	return append(dst, sig...), err
}

func (s *dsaSuite) Verify(pub PublicKey, digest []byte, sig Signature) error {
	key, ok := pub.(*dsa.PublicKey)
	if !ok {
		return fmt.Errorf("%w: want *dsa.PublicKey, got %T", ErrWrongKeyType, pub)
	}
	r := codec.NewReader(sig)
	rBytes := r.Bytes32()
	sBytes := r.Bytes32()
	if err := r.Finish(); err != nil {
		return fmt.Errorf("%w: malformed DSA signature: %v", ErrBadSignature, err)
	}
	ri := new(big.Int).SetBytes(rBytes)
	si := new(big.Int).SetBytes(sBytes)
	if !dsa.Verify(key, digest, ri, si) {
		return ErrBadSignature
	}
	return nil
}

// SignatureSize is the typical encoded size: two 20-byte values with two
// 4-byte length prefixes.
func (s *dsaSuite) SignatureSize() int { return 48 }

func (s *dsaSuite) Costs() CostModel { return CostModel{} }
