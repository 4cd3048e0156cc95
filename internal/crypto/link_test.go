package crypto

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/sof-repro/sof/internal/types"
)

func TestLinkKeysDirectional(t *testing.T) {
	lk := NewLinkKeys([]byte("master-secret"))
	ab := lk.DirKey(1, 2)
	ba := lk.DirKey(2, 1)
	if bytes.Equal(ab, ba) {
		t.Error("DirKey(1,2) == DirKey(2,1); directions must use distinct keys")
	}
	if bytes.Equal(ab, lk.DirKey(1, 3)) {
		t.Error("DirKey(1,2) == DirKey(1,3); pairs must use distinct keys")
	}
	if !bytes.Equal(ab, lk.DirKey(1, 2)) {
		t.Error("DirKey not stable across calls")
	}
}

func TestLinkKeysDeterministicAcrossInstances(t *testing.T) {
	a := NewLinkKeys([]byte("shared"))
	b := NewLinkKeys([]byte("shared"))
	if !bytes.Equal(a.DirKey(3, 4), b.DirKey(3, 4)) {
		t.Error("same master derived different direction keys")
	}
	if bytes.Equal(a.DirKey(3, 4), NewLinkKeys([]byte("other")).DirKey(3, 4)) {
		t.Error("different masters derived the same direction key")
	}
}

func TestLinkKeysCopiesMaster(t *testing.T) {
	master := []byte("will-be-clobbered")
	lk := NewLinkKeys(master)
	want := lk.DirKey(0, 1)
	for i := range master {
		master[i] = 0
	}
	lk2 := NewLinkKeys([]byte("will-be-clobbered"))
	if !bytes.Equal(want, lk2.DirKey(0, 1)) {
		t.Error("mutating the caller's master slice changed derived keys")
	}
}

// TestIssueLinksDeterministicDealer pins the cmd/sofnode contract: two
// nodes that run the same deterministic dealer sequence derive identical
// link keys, including for client IDs.
func TestIssueLinksDeterministicDealer(t *testing.T) {
	issue := func() *LinkKeys {
		d := NewDealer(NewHMACSuite(), WithRand(NewDRBG("deploy-secret")))
		if _, _, err := d.Issue([]types.NodeID{0, 1, 2, types.ClientID(0)}); err != nil {
			t.Fatal(err)
		}
		lk, err := d.IssueLinks()
		if err != nil {
			t.Fatal(err)
		}
		return lk
	}
	a, b := issue(), issue()
	if !bytes.Equal(a.DirKey(0, types.ClientID(0)), b.DirKey(0, types.ClientID(0))) {
		t.Error("deterministic dealers derived different link keys")
	}
}

// TestIssueLinksAtKeepsTheMaster: the first call writes a fresh master
// readable by its owner only, and a later dealer — fresh entropy and all —
// reads back the same one, so both derive the same link keys.
func TestIssueLinksAtKeepsTheMaster(t *testing.T) {
	path := filepath.Join(t.TempDir(), "link-master")
	first, err := NewDealer(NewHMACSuite()).IssueLinksAt(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if mode := st.Mode().Perm(); mode != 0o600 {
		t.Errorf("link master written with mode %v, want 0600", mode)
	}
	again, err := NewDealer(NewHMACSuite()).IssueLinksAt(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.DirKey(0, 1), again.DirKey(0, 1)) {
		t.Error("reopening read back a different link master")
	}
	fresh, err := NewDealer(NewHMACSuite()).IssueLinks()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(first.DirKey(0, 1), fresh.DirKey(0, 1)) {
		t.Error("sensitivity: two fresh masters derived the same key")
	}
	if err := os.WriteFile(path, []byte("short"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDealer(NewHMACSuite()).IssueLinksAt(path); err == nil {
		t.Error("a truncated link master was accepted")
	}
}
