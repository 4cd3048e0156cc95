package crypto

import (
	"bytes"
	cryptorand "crypto/rand"
	"errors"
	"strings"
	"testing"

	"github.com/sof-repro/sof/internal/types"
)

// allSuites returns one instance of every suite, including one modelled
// suite per study configuration.
func allSuites(t *testing.T) []Suite {
	t.Helper()
	names := []SuiteName{MD5RSA1024, MD5RSA1536, SHA1DSA1024, HMACSHA256, NoneSuite,
		ModelPrefix + MD5RSA1024, ModelPrefix + MD5RSA1536, ModelPrefix + SHA1DSA1024}
	suites := make([]Suite, 0, len(names))
	for _, n := range names {
		s, err := ByName(n)
		if err != nil {
			t.Fatalf("ByName(%q): %v", n, err)
		}
		suites = append(suites, s)
	}
	return suites
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("BOGUS"); err == nil {
		t.Error("ByName(BOGUS): want error")
	}
	if _, err := ByName(ModelPrefix + "BOGUS"); err == nil {
		t.Error("ByName(MODEL/BOGUS): want error")
	}
}

func TestSignVerifyRoundTrip(t *testing.T) {
	for _, s := range allSuites(t) {
		s := s
		t.Run(string(s.Name()), func(t *testing.T) {
			t.Parallel()
			priv, pub, err := s.GenerateKey(cryptorand.Reader)
			if err != nil {
				t.Fatalf("GenerateKey: %v", err)
			}
			digest := s.Digest([]byte("the streets of byzantium"))
			if got := len(digest); got != s.DigestSize() {
				t.Errorf("digest length = %d, want %d", got, s.DigestSize())
			}
			sig, err := s.Sign(cryptorand.Reader, priv, digest)
			if err != nil {
				t.Fatalf("Sign: %v", err)
			}
			if err := s.Verify(pub, digest, sig); err != nil {
				t.Errorf("Verify(own signature): %v", err)
			}
		})
	}
}

func TestVerifyRejectsTamperedDigest(t *testing.T) {
	for _, s := range allSuites(t) {
		if s.Name() == NoneSuite {
			continue // the None suite intentionally accepts everything
		}
		s := s
		t.Run(string(s.Name()), func(t *testing.T) {
			t.Parallel()
			priv, pub, err := s.GenerateKey(cryptorand.Reader)
			if err != nil {
				t.Fatalf("GenerateKey: %v", err)
			}
			digest := s.Digest([]byte("original"))
			sig, err := s.Sign(cryptorand.Reader, priv, digest)
			if err != nil {
				t.Fatalf("Sign: %v", err)
			}
			other := s.Digest([]byte("tampered"))
			if err := s.Verify(pub, other, sig); err == nil {
				t.Error("Verify(tampered digest): want error, got nil")
			}
		})
	}
}

func TestVerifyRejectsWrongSigner(t *testing.T) {
	for _, s := range allSuites(t) {
		if s.Name() == NoneSuite {
			continue
		}
		s := s
		t.Run(string(s.Name()), func(t *testing.T) {
			t.Parallel()
			privA, _, err := s.GenerateKey(cryptorand.Reader)
			if err != nil {
				t.Fatalf("GenerateKey A: %v", err)
			}
			_, pubB, err := s.GenerateKey(cryptorand.Reader)
			if err != nil {
				t.Fatalf("GenerateKey B: %v", err)
			}
			digest := s.Digest([]byte("attribution matters"))
			sig, err := s.Sign(cryptorand.Reader, privA, digest)
			if err != nil {
				t.Fatalf("Sign: %v", err)
			}
			if err := s.Verify(pubB, digest, sig); err == nil {
				t.Error("Verify with wrong signer's key: want error, got nil")
			}
		})
	}
}

func TestVerifyRejectsGarbageSignature(t *testing.T) {
	for _, s := range allSuites(t) {
		if s.Name() == NoneSuite {
			continue
		}
		s := s
		t.Run(string(s.Name()), func(t *testing.T) {
			t.Parallel()
			_, pub, err := s.GenerateKey(cryptorand.Reader)
			if err != nil {
				t.Fatalf("GenerateKey: %v", err)
			}
			digest := s.Digest([]byte("x"))
			for _, sig := range []Signature{nil, {}, {1, 2, 3}, make(Signature, 4096)} {
				if err := s.Verify(pub, digest, sig); err == nil {
					t.Errorf("Verify(garbage %d bytes): want error", len(sig))
				}
			}
		})
	}
}

func TestWrongKeyType(t *testing.T) {
	for _, s := range allSuites(t) {
		if s.Name() == NoneSuite {
			continue
		}
		digest := s.Digest([]byte("x"))
		if _, err := s.Sign(cryptorand.Reader, "not a key", digest); !errors.Is(err, ErrWrongKeyType) {
			t.Errorf("%s: Sign with wrong key type: err = %v, want ErrWrongKeyType", s.Name(), err)
		}
		if err := s.Verify(42, digest, Signature{1}); !errors.Is(err, ErrWrongKeyType) {
			t.Errorf("%s: Verify with wrong key type: err = %v, want ErrWrongKeyType", s.Name(), err)
		}
	}
}

func TestModelSuiteMetadataMatchesReal(t *testing.T) {
	for _, name := range StudySuites() {
		real, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		model, err := NewModelSuite(name)
		if err != nil {
			t.Fatalf("NewModelSuite(%q): %v", name, err)
		}
		if model.SignatureSize() != real.SignatureSize() {
			t.Errorf("%s: model sig size %d != real %d", name, model.SignatureSize(), real.SignatureSize())
		}
		if model.DigestSize() != real.DigestSize() {
			t.Errorf("%s: model digest size %d != real %d", name, model.DigestSize(), real.DigestSize())
		}
		if model.Costs() == (CostModel{}) {
			t.Errorf("%s: model suite has zero cost model", name)
		}
		if real.Costs() != (CostModel{}) {
			t.Errorf("%s: real suite should report zero costs", name)
		}
		if !strings.HasPrefix(string(model.Name()), string(ModelPrefix)) {
			t.Errorf("%s: model name %q missing prefix", name, model.Name())
		}
		emulated, isModel := Emulates(model.Name())
		if !isModel || emulated != name {
			t.Errorf("Emulates(%q) = %q, %v; want %q, true", model.Name(), emulated, isModel, name)
		}
		if _, isModel := Emulates(name); isModel {
			t.Errorf("Emulates(%q) claims a real suite is a model", name)
		}
	}
}

func TestCostModelDigestCost(t *testing.T) {
	c := CostModel{DigestBase: 10, DigestPerKB: 1024}
	if got := c.DigestCost(0); got != 10 {
		t.Errorf("DigestCost(0) = %v, want 10ns", got)
	}
	if got := c.DigestCost(1024); got != 10+1024 {
		t.Errorf("DigestCost(1KiB) = %v, want %v", got, 10+1024)
	}
	if got := c.DigestCost(512); got != 10+512 {
		t.Errorf("DigestCost(512B) = %v, want %v", got, 10+512)
	}
}

func TestDefaultCostsShape(t *testing.T) {
	rsa1024 := DefaultCosts[MD5RSA1024]
	rsa1536 := DefaultCosts[MD5RSA1536]
	dsa := DefaultCosts[SHA1DSA1024]
	// Paper: "In both the schemes the time taken to sign a given message is
	// similar; however, signature verification is much faster in the RSA
	// scheme compared to DSA."
	if rsa1024.Verify*3 > dsa.Verify {
		t.Errorf("RSA-1024 verify (%v) should be much cheaper than DSA verify (%v)", rsa1024.Verify, dsa.Verify)
	}
	if dsa.Verify < dsa.Sign {
		t.Errorf("DSA verify (%v) should not be cheaper than DSA sign (%v)", dsa.Verify, dsa.Sign)
	}
	if rsa1536.Sign <= rsa1024.Sign {
		t.Errorf("RSA-1536 sign (%v) should cost more than RSA-1024 sign (%v)", rsa1536.Sign, rsa1024.Sign)
	}
	if rsa1024.Verify >= rsa1024.Sign {
		t.Errorf("RSA verify (%v) should be cheaper than RSA sign (%v)", rsa1024.Verify, rsa1024.Sign)
	}
}

func TestDealerIssueAndKeyring(t *testing.T) {
	suite := NewHMACSuite()
	dealer := NewDealer(suite)
	ids := []types.NodeID{0, 1, 2, types.ClientID(0)}
	idents, ring, err := dealer.Issue(ids)
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	if len(idents) != len(ids) {
		t.Fatalf("Issue returned %d identities, want %d", len(idents), len(ids))
	}
	digest := suite.Digest([]byte("order<c,o,D(m)>"))
	sig, err := idents[1].Sign(digest)
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	if err := ring.Verify(1, digest, sig); err != nil {
		t.Errorf("ring.Verify(correct signer): %v", err)
	}
	if err := ring.Verify(2, digest, sig); err == nil {
		t.Error("ring.Verify(wrong signer): want error")
	}
	if err := ring.Verify(99, digest, sig); err == nil {
		t.Error("ring.Verify(unknown signer): want error")
	}
	if err := idents[0].Verify(1, digest, sig); err != nil {
		t.Errorf("identity.Verify: %v", err)
	}
}

func TestDealerRejectsDuplicateIDs(t *testing.T) {
	dealer := NewDealer(NewHMACSuite())
	if _, _, err := dealer.Issue([]types.NodeID{0, 1, 0}); err == nil {
		t.Error("Issue with duplicate ids: want error")
	}
}

func TestKeyCacheReusesKeys(t *testing.T) {
	cache := NewKeyCache()
	suite := NewHMACSuite()
	d1 := NewDealer(suite, WithKeyCache(cache))
	d2 := NewDealer(suite, WithKeyCache(cache))
	ids := []types.NodeID{0, 1}
	idsA, _, err := d1.Issue(ids)
	if err != nil {
		t.Fatalf("Issue#1: %v", err)
	}
	idsB, _, err := d2.Issue(ids)
	if err != nil {
		t.Fatalf("Issue#2: %v", err)
	}
	digest := suite.Digest([]byte("same key?"))
	sigA, err := idsA[0].Sign(digest)
	if err != nil {
		t.Fatalf("Sign A: %v", err)
	}
	// Same cached key => B's ring accepts A's signature for position 0.
	if err := idsB[0].Verify(0, digest, sigA); err != nil {
		t.Errorf("cached keys differ across dealers sharing a cache: %v", err)
	}
}

func TestRSASuiteRejectsUnsupportedSize(t *testing.T) {
	if _, err := NewRSASuite(2048); err == nil {
		t.Error("NewRSASuite(2048): want error (study uses 1024/1536 only)")
	}
}

func TestStudySuitesOrder(t *testing.T) {
	got := StudySuites()
	want := []SuiteName{MD5RSA1024, MD5RSA1536, SHA1DSA1024}
	if len(got) != len(want) {
		t.Fatalf("StudySuites() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("StudySuites()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestAppendDigestAllocFree holds every suite's two digest forms to one
// implementation: Digest is AppendDigest onto nil — same bytes, and what
// was already in dst stays — and appending into a buffer with room, the
// form transient digests use, allocates nothing.
func TestAppendDigestAllocFree(t *testing.T) {
	data := []byte("a message body to digest")
	for _, suite := range allSuites(t) {
		name := suite.Name()
		want := suite.Digest(data)
		if len(want) != suite.DigestSize() {
			t.Errorf("%s: Digest is %d bytes, DigestSize %d", name, len(want), suite.DigestSize())
		}
		got := suite.AppendDigest([]byte("kept"), data)
		if string(got[:4]) != "kept" || !bytes.Equal(got[4:], want) {
			t.Errorf("%s: AppendDigest(\"kept\", data) = %x, want \"kept\" then %x", name, got, want)
		}
		scratch := make([]byte, 0, 64)
		if allocs := testing.AllocsPerRun(100, func() { scratch = suite.AppendDigest(scratch[:0], data) }); allocs != 0 {
			t.Errorf("%s: AppendDigest into scratch = %v allocs, want 0", name, allocs)
		}
		if !bytes.Equal(scratch, want) {
			t.Errorf("%s: scratch digest %x, want %x", name, scratch, want)
		}
	}
}

// TestAppendSignMatchesSign holds every suite's two signing forms together:
// what AppendSign appends verifies like Sign's result (and is it, byte for
// byte, for the suites that sign deterministically), what was already in
// dst stays, a wrong key leaves dst as it was — and the HMAC suite, the one
// on the TCP path, signs into scratch with room without touching the heap.
func TestAppendSignMatchesSign(t *testing.T) {
	for _, suite := range allSuites(t) {
		name := suite.Name()
		priv, pub, err := suite.GenerateKey(cryptorand.Reader)
		if err != nil {
			t.Fatalf("%s: GenerateKey: %v", name, err)
		}
		digest := suite.Digest([]byte("a message body to sign"))
		want, err := suite.Sign(cryptorand.Reader, priv, digest)
		if err != nil {
			t.Fatalf("%s: Sign: %v", name, err)
		}
		got, err := suite.AppendSign([]byte("kept"), cryptorand.Reader, priv, digest)
		if err != nil || string(got[:4]) != "kept" {
			t.Fatalf("%s: AppendSign(\"kept\", ...) = %x, %v", name, got, err)
		}
		if err := suite.Verify(pub, digest, got[4:]); err != nil {
			t.Errorf("%s: Verify(appended signature): %v", name, err)
		}
		if name != SHA1DSA1024 && !bytes.Equal(got[4:], want) {
			t.Errorf("%s: AppendSign appended %x, Sign returned %x", name, got[4:], want)
		}
		if name == NoneSuite {
			continue // signs nothing, with any key
		}
		if got, err := suite.AppendSign([]byte("kept"), cryptorand.Reader, "not a key", digest); !errors.Is(err, ErrWrongKeyType) || string(got) != "kept" {
			t.Errorf("%s: AppendSign with a foreign key = %q, %v", name, got, err)
		}
	}
	if raceEnabled {
		return // the keyed-state pool drops items at random under the race detector
	}
	idents, _, err := NewDealer(NewHMACSuite()).Issue([]types.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	digest := idents[0].Digest([]byte("subject"))
	scratch := make([]byte, 0, 64)
	if allocs := testing.AllocsPerRun(200, func() { scratch, _ = idents[0].AppendSign(scratch[:0], digest) }); allocs != 0 {
		t.Errorf("Identity.AppendSign into scratch = %v allocs, want 0", allocs)
	}
	if err := idents[0].Verify(0, digest, scratch); err != nil {
		t.Errorf("Verify(scratch signature): %v", err)
	}
}
