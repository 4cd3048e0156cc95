package message

import (
	"bytes"
	"time"

	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/types"
)

// fixedSig returns 32 constant signature bytes, so sample encodings do not
// depend on key material.
func fixedSig(b byte) crypto.Signature { return bytes.Repeat([]byte{b}, 32) }

// samples returns one freshly built message of every kind with fixed field
// values and constant signature bytes. The table-completeness, golden-wire
// and round-trip tests and the fuzz seeds all read it, so a new kind needs
// exactly one new entry here.
func samples() map[Type]Message {
	digest := bytes.Repeat([]byte{0xD1}, 32)
	client := types.ClientID(3)
	entries := []OrderEntry{
		{Req: ReqID{Client: client, ClientSeq: 7}, ReqDigest: digest},
		{Req: ReqID{Client: types.ClientID(4), ClientSeq: 8}, ReqDigest: bytes.Repeat([]byte{0xD2}, 32)},
	}
	batch := func(first types.Seq) *OrderBatch {
		return &OrderBatch{Coord: 1, View: 2, FirstSeq: first, Entries: entries,
			Primary: 0, Shadow: 5, Sig1: fixedSig(0xA1), Sig2: fixedSig(0xA2)}
	}
	request := func() *Request {
		return &Request{Client: client, ClientSeq: 7, Payload: []byte("payload"), Sig: fixedSig(0xC1)}
	}
	failSig := func() *FailSignal {
		return &FailSignal{Pair: 1, Epoch: 4, First: 0, Second: 5, Sig1: fixedSig(0xF1), Sig2: fixedSig(0xF2)}
	}
	proof := func() *CommitProof {
		return &CommitProof{Batch: batch(1), Ackers: []types.NodeID{2, 3},
			Sigs: []crypto.Signature{fixedSig(0xB2), fixedSig(0xB3)}}
	}
	backLog := func() *BackLog {
		return &BackLog{From: 3, NewCoord: 2, View: 3, FailSig: failSig(), MaxCommitted: proof(),
			Uncommitted: []*OrderBatch{batch(3), batch(5)}, Padding: make([]byte, 9), Sig: fixedSig(0xB4)}
	}
	start := func() *Start {
		return &Start{Coord: 2, View: 3, StartSeq: 9, MaxCommittedSeq: 2, NewBackLog: []*OrderBatch{batch(3)},
			Primary: 1, Shadow: 6, Sig1: fixedSig(0xE1), Sig2: fixedSig(0xE2)}
	}
	prePrepare := func() *PrePrepare {
		return &PrePrepare{View: 1, FirstSeq: 1, Entries: entries, Primary: 0, Sig: fixedSig(0x91)}
	}
	viewChange := func() *BFTViewChange {
		return &BFTViewChange{From: 2, NewView: 2, LastStable: 1, Sig: fixedSig(0x94),
			Prepared: []*PreparedCert{{PrePrepare: prePrepare(), Preparers: []types.NodeID{1, 2},
				Sigs: []crypto.Signature{fixedSig(0x92), fixedSig(0x93)}}}}
	}
	return map[Type]Message{
		TRequest:    request(),
		TOrderBatch: batch(1),
		TAck: &Ack{From: 2, Kind: SubjectBatch, View: 2, FirstSeq: 1, SubjectDigest: digest,
			Subject: batch(1).Marshal(), Sig: fixedSig(0xB1)},
		TFailSignal: failSig(),
		TBackLog:    backLog(),
		TStart:      start(),
		TStartSig:   &StartSig{From: 4, Coord: 2, View: 3, StartDigest: digest, Sig: fixedSig(0xE3)},
		TStartTuples: &StartTuples{From: 1, Coord: 2, View: 3, StartDigest: digest,
			Froms: []types.NodeID{4, 2}, Sigs: []crypto.Signature{fixedSig(0xE3), fixedSig(0xE4)}, Sig: fixedSig(0xE5)},
		TPairStart: &PairStart{Start: &Start{Coord: 2, View: 3, StartSeq: 9, Primary: 1, Shadow: 6, Sig1: fixedSig(0xE1)},
			BackLogs: []*BackLog{backLog()}},
		TMirror:        &Mirror{Dir: MirrorRecv, Peer: 3, Inner: batch(1).Marshal()},
		TPrePrepare:    prePrepare(),
		TPrepare:       &Prepare{From: 2, View: 1, FirstSeq: 1, BatchDigest: digest, Sig: fixedSig(0x92)},
		TCommit:        &Commit{From: 2, View: 1, FirstSeq: 1, BatchDigest: digest, Sig: fixedSig(0x95)},
		TBFTViewChange: viewChange(),
		TBFTNewView: &BFTNewView{View: 2, Primary: 1, ViewChanges: [][]byte{viewChange().Marshal()},
			PrePrepares: []*PrePrepare{prePrepare()}, Sig: fixedSig(0x96)},
		TUnwilling:  &Unwilling{From: 1, View: 3, FailSig: failSig(), Sig: fixedSig(0x71)},
		TReply:      &Reply{From: 2, Client: client, ClientSeq: 7, Seq: 3, Result: []byte("ok"), Sig: fixedSig(0x72)},
		TPairBeat:   &PairBeat{From: 0, Epoch: 1, BeatSeq: 42, FailSigSig: fixedSig(0xF1), Sig: fixedSig(0x73)},
		TCatchUpReq: &CatchUpReq{From: 3, Watermark: 11, Announce: true, Sig: fixedSig(0x74)},
		TCatchUp: &CatchUp{From: 2, Base: 2, UpTo: 9, PairNextPropose: 10, MaxCommitted: proof(),
			Starts: []*Start{start()}, Batches: []*OrderBatch{batch(3), batch(5)},
			Requests: []*Request{request()}, Sig: fixedSig(0x75)},
		TFetchReq: &FetchReq{From: 4, Reqs: []ReqID{{Client: client, ClientSeq: 7}}, Sig: fixedSig(0x76)},
		TRejected: &Rejected{From: 3, Client: client, ClientSeq: 41, Code: 2,
			RetryAfter: 750 * time.Millisecond, Sig: fixedSig(0x77)},
	}
}
