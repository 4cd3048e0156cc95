package message

import (
	"errors"
	"fmt"

	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/types"
)

// PrePrepare is the first phase of the Castro-Liskov baseline: the primary
// assigns sequence numbers to a batch of requests and multicasts the signed
// assignment (1-to-n).
type PrePrepare struct {
	View     types.View
	FirstSeq types.Seq
	Entries  []OrderEntry
	Primary  types.NodeID
	Sig      crypto.Signature
	enc
}

// Type implements Message.
func (m *PrePrepare) Type() Type { return TPrePrepare }

// Marshal implements Message.
func (m *PrePrepare) Marshal() []byte { return m.enc.marshal(m) }

// SignedBody returns the bytes covered by Sig.
func (m *PrePrepare) SignedBody() []byte { return m.enc.signedBody(m) }

func (m *PrePrepare) layout(c *coder) {
	u64(c, &m.View)
	u64(c, &m.FirstSeq)
	i32(c, &m.Primary)
	list(c, &m.Entries, maxEntries, minOrderEntry, orderEntry)
	c.endBody()
	sig(c, &m.Sig)
}

// LastSeq returns the sequence number of the final entry.
func (m *PrePrepare) LastSeq() types.Seq {
	return m.FirstSeq + types.Seq(len(m.Entries)) - 1
}

// BodyDigest identifies the batch in prepare/commit messages.
func (m *PrePrepare) BodyDigest(v interface{ Digest([]byte) []byte }) []byte {
	return v.Digest(m.SignedBody())
}

// VerifySig checks the primary's signature.
func (m *PrePrepare) VerifySig(v Verifier) error {
	return VerifySingle(v, m.Primary, m.SignedBody(), m.Sig)
}

// Prepare is the second BFT phase (n-to-n): a backup that accepted a
// pre-prepare multicasts a signed prepare for it.
type Prepare struct {
	From        types.NodeID
	View        types.View
	FirstSeq    types.Seq
	BatchDigest []byte
	Sig         crypto.Signature
	enc
}

// Type implements Message.
func (m *Prepare) Type() Type { return TPrepare }

// Marshal implements Message.
func (m *Prepare) Marshal() []byte { return m.enc.marshal(m) }

// SignedBody returns the bytes covered by Sig.
func (m *Prepare) SignedBody() []byte { return m.enc.signedBody(m) }

// layout is shared with Commit; the two differ only in the type tag.
func (m *Prepare) layout(c *coder) {
	i32(c, &m.From)
	u64(c, &m.View)
	u64(c, &m.FirstSeq)
	blob(c, &m.BatchDigest)
	c.endBody()
	sig(c, &m.Sig)
}

// VerifySig checks the sender's signature.
func (m *Prepare) VerifySig(v Verifier) error {
	return VerifySingle(v, m.From, m.SignedBody(), m.Sig)
}

// Commit is the third BFT phase (n-to-n).
type Commit struct {
	From        types.NodeID
	View        types.View
	FirstSeq    types.Seq
	BatchDigest []byte
	Sig         crypto.Signature
	enc
}

// Type implements Message.
func (m *Commit) Type() Type { return TCommit }

// Marshal implements Message.
func (m *Commit) Marshal() []byte { return m.enc.marshal(m) }

// SignedBody returns the bytes covered by Sig.
func (m *Commit) SignedBody() []byte { return m.enc.signedBody(m) }

func (m *Commit) layout(c *coder) { (*Prepare)(m).layout(c) }

// VerifySig checks the sender's signature.
func (m *Commit) VerifySig(v Verifier) error {
	return VerifySingle(v, m.From, m.SignedBody(), m.Sig)
}

// PreparedCert certifies that a batch prepared at a replica: the
// pre-prepare plus 2f matching prepare signatures from distinct backups.
// Carried inside BFT view-change messages.
type PreparedCert struct {
	PrePrepare *PrePrepare
	Preparers  []types.NodeID
	Sigs       []crypto.Signature
}

// preparedCert lays out one element of a view change's certificate list.
func preparedCert(c *coder, p **PreparedCert) {
	if c.decoding() {
		*p = new(PreparedCert)
	}
	nested(c, &(*p).PrePrepare)
	signatories(c, &(*p).Preparers, &(*p).Sigs)
}

// Verify checks the pre-prepare signature and at least need distinct
// prepare signatures from processes other than the primary.
func (c *PreparedCert) Verify(v Verifier, need int) error {
	if c == nil || c.PrePrepare == nil || len(c.Preparers) != len(c.Sigs) {
		return errors.New("message: malformed prepared cert")
	}
	if err := c.PrePrepare.VerifySig(v); err != nil {
		return err
	}
	digest := c.PrePrepare.BodyDigest(v)
	distinct := make(map[types.NodeID]bool)
	prepare := Prepare{View: c.PrePrepare.View, FirstSeq: c.PrePrepare.FirstSeq, BatchDigest: digest}
	for i, from := range c.Preparers {
		if from == c.PrePrepare.Primary {
			continue
		}
		prepare.From = from
		if err := verifyDetached(v, from, &prepare, c.Sigs[i]); err != nil {
			return fmt.Errorf("message: prepared cert prepare from %v: %w", from, err)
		}
		distinct[from] = true
	}
	if len(distinct) < need {
		return fmt.Errorf("message: prepared cert has %d prepares, need %d", len(distinct), need)
	}
	return nil
}

// BFTViewChange is a replica's vote to move to NewView, carrying its
// prepared certificates above the last stable sequence number.
type BFTViewChange struct {
	From       types.NodeID
	NewView    types.View
	LastStable types.Seq
	Prepared   []*PreparedCert
	Sig        crypto.Signature
	enc
}

// Type implements Message.
func (m *BFTViewChange) Type() Type { return TBFTViewChange }

// Marshal implements Message.
func (m *BFTViewChange) Marshal() []byte { return m.enc.marshal(m) }

// SignedBody returns the bytes covered by Sig.
func (m *BFTViewChange) SignedBody() []byte { return m.enc.signedBody(m) }

func (m *BFTViewChange) layout(c *coder) {
	i32(c, &m.From)
	u64(c, &m.NewView)
	u64(c, &m.LastStable)
	// A certificate is at least a nested pre-prepare and a signatory count.
	list(c, &m.Prepared, maxItems, minNested+4, preparedCert)
	c.endBody()
	sig(c, &m.Sig)
}

// VerifySig checks the sender's signature (certificates are verified
// separately with the quorum parameter).
func (m *BFTViewChange) VerifySig(v Verifier) error {
	return VerifySingle(v, m.From, m.SignedBody(), m.Sig)
}

// BFTNewView announces the new view: the 2f+1 view-change messages that
// justify it and the pre-prepares the new primary re-issues.
type BFTNewView struct {
	View        types.View
	Primary     types.NodeID
	ViewChanges [][]byte // marshalled BFTViewChange messages
	PrePrepares []*PrePrepare
	Sig         crypto.Signature
	enc
}

// Type implements Message.
func (m *BFTNewView) Type() Type { return TBFTNewView }

// Marshal implements Message.
func (m *BFTNewView) Marshal() []byte { return m.enc.marshal(m) }

// SignedBody returns the bytes covered by Sig.
func (m *BFTNewView) SignedBody() []byte { return m.enc.signedBody(m) }

func (m *BFTNewView) layout(c *coder) {
	u64(c, &m.View)
	i32(c, &m.Primary)
	list(c, &m.ViewChanges, maxItems, minBlob, blob[[]byte])
	list(c, &m.PrePrepares, maxItems, minNested, nested[*PrePrepare])
	c.endBody()
	sig(c, &m.Sig)
}

// VerifySig checks the new primary's signature.
func (m *BFTNewView) VerifySig(v Verifier) error {
	return VerifySingle(v, m.Primary, m.SignedBody(), m.Sig)
}
