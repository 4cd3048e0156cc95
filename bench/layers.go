package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"github.com/sof-repro/sof/internal/codec"
	"github.com/sof-repro/sof/internal/core"
	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/ingress"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/session"
	"github.com/sof-repro/sof/internal/shard"
	"github.com/sof-repro/sof/internal/tcpnet"
	"github.com/sof-repro/sof/internal/types"
	"github.com/sof-repro/sof/internal/wal"
)

const (
	driveRounds = 5
	kb          = 1024
)

// drive times one layer operation from outside its package.
type drive struct {
	tl      *traceLog
	metrics map[string]float64
	errs    []string
}

// op calls fn n times per round and stores the median round's
// nanoseconds per call, divided by scale, under name; with allocs it also
// stores mallocs per call under name with its _ns suffix replaced by
// _allocs. before, if not nil, prepares each round untimed.
func (d *drive) op(name string, n int, scale float64, allocs bool, before, fn func()) {
	start := time.Now()
	ns := make([]float64, driveRounds)
	var ms0, ms1 runtime.MemStats
	for r := range ns {
		if before != nil {
			before()
		}
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		ns[r] = float64(time.Since(t0)) / float64(n) / scale
		runtime.ReadMemStats(&ms1)
	}
	sort.Float64s(ns)
	d.metrics[name] = ns[driveRounds/2]
	if allocs {
		d.metrics[name[:len(name)-len("_ns")]+"_allocs"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
	}
	d.tl.layer(name, start, time.Now())
}

func (d *drive) fail(what string, err error) {
	d.errs = append(d.errs, fmt.Sprintf("%s: %v", what, err))
}

// The sinks keep results alive so the compiler cannot drop the measured
// call; they are typed so that storing a result allocates nothing.
var (
	sinkBytes []byte
	sinkMsg   message.Message
	sinkErr   error
	sinkInt   int
)

// driveLayers replays the workload's own message shapes through each
// package's public functions, one layer at a time, with nothing else
// running. The numbers say what one call costs in isolation; the traced
// window says how often the cluster makes it.
func driveLayers(w workload, tl *traceLog, metrics map[string]float64) []string {
	d := &drive{tl: tl, metrics: metrics}
	suite, err := crypto.ByName(crypto.HMACSHA256)
	if err != nil {
		d.fail("crypto suite", err)
		return d.errs
	}
	topo, err := types.NewTopology(types.SC, faults)
	if err != nil {
		d.fail("topology", err)
		return d.errs
	}
	primary, shadow, _, _ := topo.Candidate(1)
	client := types.ClientID(0)
	dealer := crypto.NewDealer(suite, crypto.WithKeyCache(crypto.SharedKeyCache()))
	idents, _, err := dealer.Issue(append(topo.AllProcesses(), client, types.ClientID(1)))
	if err != nil {
		d.fail("dealing keys", err)
		return d.errs
	}
	payload := bytes.Repeat([]byte{0xa5}, w.ReqBytes)
	perBatch := w.BatchBytes / (w.ReqBytes + core.EntryOverhead + suite.DigestSize())
	if perBatch < 1 {
		perBatch = 1
	}

	// crypto
	digest := suite.Digest(payload)
	sig, err := idents[client].Sign(digest)
	if err != nil {
		d.fail("signing", err)
		return d.errs
	}
	d.op("crypto.sign_ns", 2000, 1, false, nil, func() { sinkBytes, _ = idents[client].Sign(digest) })
	d.op("crypto.verify_ns", 2000, 1, false, nil, func() { sinkErr = idents[primary].Verify(client, digest, sig) })
	block := make([]byte, 4*kb)
	d.op("crypto.digest_ns_per_kb", 500, 4, false, nil, func() { sinkBytes = suite.Digest(block) })

	// message: request, doubly-signed order batch, digest-only ack.
	req := &message.Request{Client: client, ClientSeq: 1, Payload: payload}
	req.Sig, _ = message.SignSingle(idents[client], req.SignedBody())
	reqWire := req.Marshal()
	entries := make([]message.OrderEntry, perBatch)
	for i := range entries {
		entries[i] = message.OrderEntry{Req: message.ReqID{Client: client, ClientSeq: uint64(i + 1)}, ReqDigest: digest}
	}
	batch := &message.OrderBatch{Coord: 1, View: 1, FirstSeq: 1, Entries: entries, Primary: primary, Shadow: shadow}
	batch.Sig1, _ = message.SignSingle(idents[primary], batch.SignedBody())
	batch.Sig2, _ = message.SignSecond(idents[shadow], batch.SignedBody(), batch.Sig1)
	batchWire := batch.Marshal()
	ack := &message.Ack{From: primary, Kind: message.SubjectBatch, View: 1, FirstSeq: 1,
		SubjectDigest: batch.BodyDigest(idents[primary])}
	ack.Sig, _ = message.SignSingle(idents[primary], ack.SignedBody())
	ackWire := ack.Marshal()
	// Marshal memoizes on the struct, so each call encodes a fresh copy
	// of the exported fields.
	d.op("message.request_marshal_ns", 2000, 1, true, nil, func() {
		sinkBytes = (&message.Request{Client: client, ClientSeq: 1, Payload: payload, Sig: req.Sig}).Marshal()
	})
	d.op("message.request_decode_ns", 2000, 1, true, nil, func() { sinkMsg, _ = message.Decode(reqWire) })
	d.op("message.orderbatch_marshal_ns", 2000, 1, true, nil, func() {
		sinkBytes = (&message.OrderBatch{Coord: 1, View: 1, FirstSeq: 1, Entries: entries, Primary: primary,
			Shadow: shadow, Sig1: batch.Sig1, Sig2: batch.Sig2}).Marshal()
	})
	d.op("message.orderbatch_decode_ns", 2000, 1, true, nil, func() { sinkMsg, _ = message.Decode(batchWire) })
	d.op("message.ack_marshal_ns", 2000, 1, true, nil, func() {
		sinkBytes = (&message.Ack{From: primary, Kind: message.SubjectBatch, View: 1, FirstSeq: 1,
			SubjectDigest: ack.SubjectDigest, Sig: ack.Sig}).Marshal()
	})
	d.op("message.ack_decode_ns", 2000, 1, true, nil, func() { sinkMsg, _ = message.Decode(ackWire) })
	relayed, err := message.Decode(batchWire)
	if err != nil {
		d.fail("decoding the order batch", err)
		return d.errs
	}
	d.op("message.remarshal_memo_ns", 20000, 1, true, nil, func() { sinkBytes = relayed.Marshal() })

	// codec
	d.op("codec.write_ns_per_kb", 5000, 4, false, nil, func() {
		cw := codec.GetWriter()
		cw.Bytes32(block)
		sinkInt = cw.Len()
		cw.Release()
	})
	encoded := codec.NewWriter(len(block) + 4)
	encoded.Bytes32(block)
	d.op("codec.read_ns_per_kb", 20000, 4, false, nil, func() { sinkBytes = codec.NewReader(encoded.Bytes()).Bytes32() })
	d.op("codec.writer_pool_ns", 20000, 1, true, nil, func() {
		cw := codec.GetWriter()
		cw.U64(1)
		cw.Release()
	})
	delete(metrics, "codec.writer_pool_ns") // only its allocation count is a metric

	// session
	cfg := &session.Config{Keys: crypto.NewLinkKeys([]byte("bench link master")), Resume: true}
	snd, rcv := cfg.NewSender(primary, shadow), cfg.NewReceiver(shadow, primary)
	if err := rcv.VerifyHello(snd.Hello()); err != nil {
		d.fail("session hello", err)
		return d.errs
	}
	var frame session.Frame
	d.op("session.seal_ns", 2000, 1, false, nil, func() { frame = snd.Seal(reqWire) })
	d.op("session.seal_ns_per_kb", 1000, 4, false, nil, func() { frame = snd.Seal(block) })
	sinkBytes = frame.MAC
	// The receiver takes each sequence number once, so every round opens
	// frames sealed for it beforehand.
	wire := make([][]byte, 2000)
	next := 0
	d.op("session.open_ns", len(wire), 1, false, func() {
		for i := range wire {
			wire[i] = snd.Seal(reqWire).Append(wire[i][:0])
		}
		next = 0
	}, func() {
		sinkBytes, _ = rcv.Open(wire[next])
		next++
	})

	// tcpnet
	var frameBuf []byte
	d.op("tcpnet.frame_append_ns", 20000, 1, false, nil, func() { frameBuf = tcpnet.AppendFrame(frameBuf[:0], reqWire) })
	rd := bytes.NewReader(frameBuf)
	d.op("tcpnet.frame_read_ns", 20000, 1, false, nil, func() {
		rd.Reset(frameBuf)
		sinkBytes, _ = tcpnet.ReadFrame(rd)
	})
	d.loopback(reqWire)

	// wal
	d.wal(reqWire, block)

	// shard
	if sm, err := shard.New(4); err != nil {
		d.fail("shard map", err)
	} else {
		d.op("shard.groupfor_ns", 20000, 1, false, nil, func() { sinkInt = sm.GroupFor(payload[:16]) })
	}

	// ingress
	ctl := ingress.NewController(clusterOptions(w, 0, "").Ingress)
	now := time.Now()
	pressure := ingress.Pressure{PoolBytes: w.BatchBytes / 2, BatchBytes: w.BatchBytes, PoolPending: perBatch,
		ClientPending: 1, ActiveClients: clients, Inflight: 1, MaxInflight: 8}
	d.op("ingress.admit_ns", 20000, 1, false, nil, func() { sinkInt = int(ctl.Admit(client, now, pressure).Code) })

	// core request pool: fill, then drain batch by batch, FIFO and DRR.
	reqs := make([]*message.Request, 2000)
	for i := range reqs {
		reqs[i] = &message.Request{Client: types.ClientID(i % clients), ClientSeq: uint64(i + 1), Payload: payload}
	}
	var pool *core.RequestPool
	filled := func(n int, fair bool) func() {
		return func() {
			pool = core.NewRequestPool()
			if fair {
				pool.SetFair(256)
			}
			for _, r := range reqs[:n] {
				pool.Add(r)
			}
			next = 0
		}
	}
	d.op("core.pool_add_ns", len(reqs), 1, false, filled(0, false), func() {
		pool.Add(reqs[next])
		next++
	})
	nextBatch := func() { sinkInt = len(pool.NextBatch(w.BatchBytes, suite.DigestSize())) }
	d.op("core.pool_nextbatch_ns", len(reqs)/perBatch, 1, false, filled(len(reqs), false), nextBatch)
	d.op("core.pool_nextbatch_fair_ns", len(reqs)/perBatch, 1, false, filled(len(reqs), true), nextBatch)
	return d.errs
}

// loopback measures a frame's round trip between two Transports on the
// loopback interface: Send, the peer's handler, Send back, our handler.
func (d *drive) loopback(raw []byte) {
	a, b := types.NodeID(0), types.NodeID(1)
	ta, err := tcpnet.Listen(a, "127.0.0.1:0", nil, nil, tcpnet.Options{})
	if err != nil {
		d.fail("tcpnet listen", err)
		return
	}
	defer ta.Close()
	tb, err := tcpnet.Listen(b, "127.0.0.1:0", nil, nil, tcpnet.Options{})
	if err != nil {
		d.fail("tcpnet listen", err)
		return
	}
	defer tb.Close()
	ta.SetPeers(map[types.NodeID]string{b: tb.Addr()})
	tb.SetPeers(map[types.NodeID]string{a: ta.Addr()})
	back := make(chan struct{}, 1) // one ping in flight
	ta.Start(func(types.NodeID, []byte) { back <- struct{}{} })
	tb.Start(func(_ types.NodeID, frame []byte) { tb.Send(a, raw) })
	ping := func() bool {
		ta.Send(b, raw)
		select {
		case <-back:
			return true
		case <-time.After(2 * time.Second):
			return false
		}
	}
	if !ping() { // dials both directions
		d.fail("tcpnet loopback", fmt.Errorf("no echo within 2s"))
		return
	}
	d.op("tcpnet.loopback_rtt_us", 500, 1e3, false, nil, func() { ping() })
}

// wal times buffered appends of the workload's request and of a 4 KB
// record, and an append made durable by an explicit Sync.
func (d *drive) wal(small, block []byte) {
	dir, err := os.MkdirTemp(scratchDir, "wal-")
	if err != nil {
		d.fail("wal temp dir", err)
		return
	}
	defer os.RemoveAll(dir)
	l, err := wal.Open(wal.Options{Dir: dir, SyncInterval: -1})
	if err != nil {
		d.fail("wal open", err)
		return
	}
	defer l.Close()
	d.op("wal.append_ns", 5000, 1, false, nil, func() { _, sinkErr = l.Append(small) })
	d.op("wal.append_ns_per_kb", 2000, 4, false, nil, func() { _, sinkErr = l.Append(block) })
	d.op("wal.sync_ms", 10, 1e6, false, nil, func() {
		_, sinkErr = l.Append(small)
		sinkErr = l.Sync()
	})
}
