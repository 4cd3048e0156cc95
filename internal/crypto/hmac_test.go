package crypto

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"github.com/sof-repro/sof/internal/types"
)

// raceEnabled is set by race_test.go: under the race detector sync.Pool
// drops items at random, so the pooled-state floors do not hold.
var raceEnabled bool

// TestHMACAllocationFloors pins what a MAC costs the heap on the commit
// path: Verify nothing, Sign its 32-byte result. hmac.New per call was six
// objects, a third of all allocations per commit.
func TestHMACAllocationFloors(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation floors do not hold under the race detector")
	}
	idents, _, err := NewDealer(NewHMACSuite()).Issue([]types.NodeID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	digest := idents[0].Digest([]byte("subject"))
	sig, err := idents[0].Sign(digest)
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, func() { sig, _ = idents[0].Sign(digest) }); got > 1 {
		t.Errorf("Identity.Sign = %v allocs, want <= 1 (the signature)", got)
	}
	if got := testing.AllocsPerRun(200, func() { err = idents[1].Verify(0, digest, sig) }); got != 0 || err != nil {
		t.Errorf("Identity.Verify = %v allocs (err %v), want 0", got, err)
	}
}

// TestHMACMatchesReference holds the pooled states to the MAC a fresh
// hmac.New computes: signatures are wire and journal bytes, so a reused
// state must produce them bit for bit, whatever it computed before.
func TestHMACMatchesReference(t *testing.T) {
	suite := NewHMACSuite()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 32; i++ {
		priv, pub, err := suite.GenerateKey(rng)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 8; j++ {
			digest := make([]byte, 1+rng.Intn(96)) // Sign takes any bytes, not only a suite digest
			rng.Read(digest)
			ref := hmac.New(sha256.New, priv.(*hmacKey).secret)
			ref.Write(digest)
			want := ref.Sum(nil)
			got, err := suite.Sign(nil, priv, digest)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("key %d digest %d: Sign = %x (err %v), reference %x", i, j, got, err, want)
			}
			if err := suite.Verify(pub, digest, want); err != nil {
				t.Fatalf("key %d digest %d: Verify(reference MAC): %v", i, j, err)
			}
		}
	}
}

// TestHMACPoolConcurrentKeys drives one keyring from 8 goroutines with
// interleaved keys (run it under -race): every signature verifies under
// its signer and under no one else, so a state taken from a pool is never
// another key's, and a forged signature never verifies.
func TestHMACPoolConcurrentKeys(t *testing.T) {
	ids := []types.NodeID{0, 1, 2, 3}
	idents, ring, err := NewDealer(NewHMACSuite()).Issue(ids)
	if err != nil {
		t.Fatal(err)
	}
	forged := bytes.Repeat([]byte{0xAB}, sha256.Size)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			digest := make([]byte, sha256.Size)
			for i := 0; i < 500; i++ {
				rng.Read(digest)
				signer := ids[(g+i)%len(ids)]
				other := ids[(g+i+1)%len(ids)]
				sig, err := idents[signer].Sign(digest)
				if err != nil {
					t.Errorf("Sign as %v: %v", signer, err)
					return
				}
				if err := ring.Verify(signer, digest, sig); err != nil {
					t.Errorf("own signature of %v: %v", signer, err)
					return
				}
				if err := ring.Verify(other, digest, sig); !errors.Is(err, ErrBadSignature) {
					t.Errorf("signature of %v under %v's key: %v, want ErrBadSignature", signer, other, err)
					return
				}
				if err := ring.Verify(signer, digest, forged); !errors.Is(err, ErrBadSignature) {
					t.Errorf("forged signature for %v: %v, want ErrBadSignature", signer, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
