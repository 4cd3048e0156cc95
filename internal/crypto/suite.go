package crypto

import (
	"errors"
	"fmt"
	"io"
	"time"
)

// SuiteName identifies a signature suite.
type SuiteName string

// The suites of the performance study plus the auxiliary suites.
const (
	// MD5RSA1024 is MD5 digests with 1024-bit RSA signatures.
	MD5RSA1024 SuiteName = "MD5-RSA1024"
	// MD5RSA1536 is MD5 digests with 1536-bit RSA signatures.
	MD5RSA1536 SuiteName = "MD5-RSA1536"
	// SHA1DSA1024 is SHA1 digests with 1024-bit DSA signatures.
	SHA1DSA1024 SuiteName = "SHA1-DSA1024"
	// HMACSHA256 is the symmetric MAC suite, the default of sofnode,
	// sof.Config and the harness. It does not provide non-repudiation
	// between dealt processes (see hmacSuite) and must not be used where
	// a third party verifies another pair's signatures adversarially;
	// deployments and tests that need true signatures use the RSA or DSA
	// suites.
	HMACSHA256 SuiteName = "HMAC-SHA256"
	// NoneSuite performs no digesting or signing (the CT baseline).
	NoneSuite SuiteName = "NONE"
)

// ModelPrefix prefixes the names of modelled suites: "MODEL/" + emulated
// suite name (e.g. "MODEL/MD5-RSA1024").
const ModelPrefix = "MODEL/"

// Signature is a detached signature over a digest.
type Signature []byte

// PublicKey is an opaque, suite-specific verification key.
type PublicKey any

// PrivateKey is an opaque, suite-specific signing key.
type PrivateKey any

// ErrBadSignature is returned by Verify when a signature does not match.
var ErrBadSignature = errors.New("crypto: signature verification failed")

// ErrWrongKeyType is returned when a key of the wrong suite is supplied.
var ErrWrongKeyType = errors.New("crypto: key type does not match suite")

// CostModel gives the modelled CPU cost of each cryptographic operation for
// the discrete-event simulator. Real suites report a zero CostModel: their
// cost is the real CPU time they take.
type CostModel struct {
	// Sign is the cost of producing one signature.
	Sign time.Duration
	// Verify is the cost of verifying one signature.
	Verify time.Duration
	// DigestBase is the fixed cost of one digest computation.
	DigestBase time.Duration
	// DigestPerKB is the additional digest cost per KiB of input.
	DigestPerKB time.Duration
}

// DigestCost returns the modelled cost of digesting n bytes.
func (c CostModel) DigestCost(n int) time.Duration {
	return c.DigestBase + time.Duration(int64(c.DigestPerKB)*int64(n)/1024)
}

// Suite is a digest-and-sign scheme. Implementations must be safe for
// concurrent use by multiple goroutines.
type Suite interface {
	// Name returns the suite identifier.
	Name() SuiteName
	// Digest returns the message digest of data (the D(m) of the paper)
	// in a slice of its own: AppendDigest(nil, data).
	Digest(data []byte) []byte
	// AppendDigest appends the digest of data to dst and returns the
	// extended slice, allocating only when dst lacks the room — the form
	// for a digest summed into scratch and dropped.
	AppendDigest(dst, data []byte) []byte
	// DigestSize returns the digest length in bytes.
	DigestSize() int
	// GenerateKey creates a fresh key pair using entropy from rng.
	GenerateKey(rng io.Reader) (PrivateKey, PublicKey, error)
	// Sign signs a digest, returning the signature in a slice of its own:
	// AppendSign onto nil.
	Sign(rng io.Reader, priv PrivateKey, digest []byte) (Signature, error)
	// AppendSign appends the signature over digest to dst and returns the
	// extended slice — the form for a signature written into scratch and
	// copied into the message it belongs to. On error dst is returned
	// unextended.
	AppendSign(dst []byte, rng io.Reader, priv PrivateKey, digest []byte) ([]byte, error)
	// Verify checks sig over digest against pub. A mismatch returns
	// ErrBadSignature (possibly wrapped).
	Verify(pub PublicKey, digest []byte, sig Signature) error
	// SignatureSize returns the typical signature length in bytes, used
	// for message-size accounting by the network model.
	SignatureSize() int
	// Costs returns the modelled per-operation CPU costs (zero for real
	// suites).
	Costs() CostModel
}

// ByName returns the suite with the given name. Modelled suites are named
// "MODEL/<real name>".
func ByName(name SuiteName) (Suite, error) {
	switch name {
	case MD5RSA1024:
		return NewRSASuite(1024)
	case MD5RSA1536:
		return NewRSASuite(1536)
	case SHA1DSA1024:
		return NewDSASuite(), nil
	case HMACSHA256:
		return NewHMACSuite(), nil
	case NoneSuite:
		return NewNoneSuite(), nil
	}
	if len(name) > len(ModelPrefix) && name[:len(ModelPrefix)] == ModelPrefix {
		return NewModelSuite(SuiteName(name[len(ModelPrefix):]))
	}
	return nil, fmt.Errorf("crypto: unknown suite %q", name)
}

// StudySuites returns the three suite names of the paper's evaluation, in
// the order of Figures 4-6 (a), (b), (c).
func StudySuites() []SuiteName {
	return []SuiteName{MD5RSA1024, MD5RSA1536, SHA1DSA1024}
}
