package crypto

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sync"

	"github.com/sof-repro/sof/internal/types"
)

// linkKeyLen is the size of the master link secret and of every derived
// per-direction key.
const linkKeyLen = 32

// linkKeyLabel domain-separates link-key derivation from every other use
// of HMAC-SHA256 in the system.
const linkKeyLabel = "sof/session/v2"

// LinkKeys holds the dealer-issued master secret for transport-session
// authentication and derives one key per ordered (sender, receiver) pair.
//
// The derivation is K(from->to) = HMAC-SHA256(master, label|from|to), so
// the two directions of a link use distinct keys and a MAC made for one
// direction never verifies on the other (no reflection). Like the HMAC
// signature suite, this is dealer-trust symmetric-key material: every
// party the dealer initialised can derive every link key, so it
// authenticates the *transport* against outsiders (the Castro-Liskov
// authenticated-channel role) and does not provide non-repudiation —
// Byzantine-fault attribution still rests on the message signatures.
type LinkKeys struct {
	master []byte

	mu   sync.Mutex
	dirs map[[2]types.NodeID][]byte
}

// NewLinkKeys builds a LinkKeys from a master secret (copied).
func NewLinkKeys(master []byte) *LinkKeys {
	m := make([]byte, len(master))
	copy(m, master)
	return &LinkKeys{master: m, dirs: make(map[[2]types.NodeID][]byte)}
}

// IssueLinks draws a fresh master link secret from the dealer's entropy
// source. With a deterministic dealer (DRBG seeded from the shared
// deployment secret) every node that performs the same Issue/IssueLinks
// sequence derives the same link keys, standing in for the trusted
// dealer's pairwise key distribution (Assumption 2).
func (d *Dealer) IssueLinks() (*LinkKeys, error) {
	master := make([]byte, linkKeyLen)
	if _, err := io.ReadFull(d.rng, master); err != nil {
		return nil, fmt.Errorf("crypto: issuing link keys: %w", err)
	}
	return &LinkKeys{master: master, dirs: make(map[[2]types.NodeID][]byte)}, nil
}

// IssueLinksAt is IssueLinks for a deployment that is reopened on its
// durable state: the first call draws the master and writes it to path
// with mode 0600, and every later call reads it back, so frames an
// earlier incarnation journalled still verify after a reopen.
func (d *Dealer) IssueLinksAt(path string) (*LinkKeys, error) {
	master, err := os.ReadFile(path)
	switch {
	case err == nil:
		if len(master) != linkKeyLen {
			return nil, fmt.Errorf("crypto: link master %s holds %d bytes, want %d", path, len(master), linkKeyLen)
		}
		return NewLinkKeys(master), nil
	case !errors.Is(err, fs.ErrNotExist):
		return nil, fmt.Errorf("crypto: reading link master: %w", err)
	}
	lk, err := d.IssueLinks()
	if err != nil {
		return nil, err
	}
	// Write-then-rename: a crash leaves the whole master or none of it.
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err == nil {
		_, err = f.Write(lk.master)
		if err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp) // best effort: the write has already failed
		return nil, fmt.Errorf("crypto: writing link master: %w", err)
	}
	return lk, nil
}

// DirKey returns the MAC key for frames flowing from -> to, memoizing the
// derivation. The returned slice is shared and must not be modified.
// Because the cache is unbounded, callers handling *unauthenticated*
// claims (a transport checking an inbound hello) must use DirKeyUncached
// until the claim verifies, or an attacker cycling claimed IDs grows the
// cache without limit.
func (lk *LinkKeys) DirKey(from, to types.NodeID) []byte {
	lk.mu.Lock()
	defer lk.mu.Unlock()
	pair := [2]types.NodeID{from, to}
	if k, ok := lk.dirs[pair]; ok {
		return k
	}
	k := lk.derive(from, to)
	lk.dirs[pair] = k
	return k
}

// DirKeyUncached derives the MAC key for from -> to without touching the
// cache; see DirKey.
func (lk *LinkKeys) DirKeyUncached(from, to types.NodeID) []byte {
	return lk.derive(from, to)
}

func (lk *LinkKeys) derive(from, to types.NodeID) []byte {
	var ids [8]byte
	binary.BigEndian.PutUint32(ids[0:], uint32(int32(from)))
	binary.BigEndian.PutUint32(ids[4:], uint32(int32(to)))
	m := hmac.New(sha256.New, lk.master)
	m.Write([]byte(linkKeyLabel))
	m.Write(ids[:])
	return m.Sum(nil)
}
