package crypto

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
)

// modelSuite emulates one of the real suites for the discrete-event
// simulator: its operations are nearly free to execute but report the
// calibrated 2006-era CPU costs of the emulated suite, and its signatures
// have the emulated suite's wire size so the network model charges
// realistic serialisation delays.
//
// A model "signature" is the signer's key tag followed by a digest prefix,
// padded to the emulated signature size. It is trivially forgeable by
// in-process code, which is acceptable because the simulator is a
// performance instrument: Byzantine-behaviour correctness is tested with
// the real suites.
type modelSuite struct {
	emulated SuiteName
	sigSize  int
	digSize  int
	costs    CostModel
}

var _ Suite = (*modelSuite)(nil)

// NewModelSuite returns a modelled suite emulating the named real suite
// with the default calibrated cost table.
func NewModelSuite(emulated SuiteName) (Suite, error) {
	costs, ok := DefaultCosts[emulated]
	if !ok {
		return nil, fmt.Errorf("crypto: no cost model for suite %q", emulated)
	}
	return NewModelSuiteWithCosts(emulated, costs)
}

// NewModelSuiteWithCosts returns a modelled suite with an explicit cost
// table, for calibration sweeps.
func NewModelSuiteWithCosts(emulated SuiteName, costs CostModel) (Suite, error) {
	real, err := ByName(emulated)
	if err != nil {
		return nil, fmt.Errorf("crypto: model suite: %w", err)
	}
	return &modelSuite{
		emulated: emulated,
		sigSize:  real.SignatureSize(),
		digSize:  real.DigestSize(),
		costs:    costs,
	}, nil
}

func (s *modelSuite) Name() SuiteName { return ModelPrefix + s.emulated }

func (s *modelSuite) Digest(data []byte) []byte { return s.AppendDigest(nil, data) }

// AppendDigest uses SHA-256 truncated to the emulated digest size:
// collision resistance is preserved at the 2006 suite's output length and
// the protocols see realistic digest sizes on the wire.
func (s *modelSuite) AppendDigest(dst, data []byte) []byte {
	d := sha256.Sum256(data)
	n := s.digSize
	if n <= 0 || n > len(d) {
		n = len(d)
	}
	return append(dst, d[:n]...)
}

func (s *modelSuite) DigestSize() int { return s.digSize }

type modelKey [8]byte

func (s *modelSuite) GenerateKey(rng io.Reader) (PrivateKey, PublicKey, error) {
	var k modelKey
	if _, err := io.ReadFull(rng, k[:]); err != nil {
		return nil, nil, fmt.Errorf("crypto: model key generation: %w", err)
	}
	return k, k, nil
}

func (s *modelSuite) Sign(rng io.Reader, priv PrivateKey, digest []byte) (Signature, error) {
	return s.AppendSign(nil, rng, priv, digest)
}

func (s *modelSuite) AppendSign(dst []byte, _ io.Reader, priv PrivateKey, digest []byte) ([]byte, error) {
	k, ok := priv.(modelKey)
	if !ok {
		return dst, fmt.Errorf("%w: want model key, got %T", ErrWrongKeyType, priv)
	}
	at := len(dst)
	dst = append(dst, make([]byte, s.sigSize)...) // zero-extends in place; the make is not materialised
	n := copy(dst[at:], k[:])
	copy(dst[at+n:], digest)
	return dst, nil
}

func (s *modelSuite) Verify(pub PublicKey, digest []byte, sig Signature) error {
	k, ok := pub.(modelKey)
	if !ok {
		return fmt.Errorf("%w: want model key, got %T", ErrWrongKeyType, pub)
	}
	if len(sig) != s.sigSize {
		return fmt.Errorf("%w: bad model signature length %d", ErrBadSignature, len(sig))
	}
	if !bytes.Equal(sig[:len(k)], k[:]) {
		return ErrBadSignature
	}
	want := digest
	room := s.sigSize - len(k)
	if len(want) > room {
		want = want[:room]
	}
	if !bytes.Equal(sig[len(k):len(k)+len(want)], want) {
		return ErrBadSignature
	}
	return nil
}

func (s *modelSuite) SignatureSize() int { return s.sigSize }

func (s *modelSuite) Costs() CostModel { return s.costs }

// Emulates returns the real suite a modelled suite stands in for, or
// (name, false) if the suite is not a model.
func Emulates(name SuiteName) (SuiteName, bool) {
	if len(name) > len(ModelPrefix) && name[:len(ModelPrefix)] == ModelPrefix {
		return name[len(ModelPrefix):], true
	}
	return name, false
}
