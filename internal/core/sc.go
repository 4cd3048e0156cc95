package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/fsp"
	"github.com/sof-repro/sof/internal/ingress"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/obs"
	"github.com/sof-repro/sof/internal/runtime"
	"github.com/sof-repro/sof/internal/types"
)

// Config parameterises one SC order process.
type Config struct {
	// Topo is the SC topology (2f+1 replicas, f shadows, n = 3f+1).
	Topo types.Topology
	// BatchInterval is the paper's batching-interval: the coordinator
	// proposes one batch per interval.
	BatchInterval time.Duration
	// MaxBatchBytes is the paper's batch_size (1 KB in the evaluation).
	MaxBatchBytes int
	// Delta is the differential delay estimate for intra-pair time-domain
	// checks (assumption 3(a)(i)/3(b)(i)).
	Delta time.Duration
	// Mirror enables pair-link mirroring of asynchronous-network traffic
	// (Section 3.1 collaboration (i)).
	Mirror bool
	// DumbOptimization mutes the processes of a replaced coordinator pair
	// and shrinks (n, f) accordingly (Section 4.3, first optimization).
	DumbOptimization bool
	// PresignedFailSig is the counterpart's epoch-0 pre-signature (paired
	// processes only).
	PresignedFailSig crypto.Signature
	// PadBacklogBytes pads BackLog messages, letting the Figure 6
	// experiments control BackLog size.
	PadBacklogBytes int
	// Checkpointer, when non-nil, makes protocol state durable: the
	// process snapshots its view, pair epochs, committed-sequence
	// watermark and committed-order digest every CheckpointInterval
	// delivered sequence numbers, and a restarted process restores the
	// snapshot and catches up on missed commits from its peers (CatchUp)
	// before resuming ordering duties. Peers gossip durable checkpoint
	// watermarks and prune committed-order history below the cluster-wide
	// minimum.
	Checkpointer Checkpointer
	// CheckpointInterval is the number of delivered sequence numbers
	// between checkpoints (default DefaultCheckpointInterval). Ignored
	// without Checkpointer.
	CheckpointInterval int
	// MaxInflightBatches caps how many proposed-but-undelivered batches
	// the primary keeps outstanding. Values <= 1 preserve the paper's
	// strictly interval-paced proposer (one batch per batch tick,
	// regardless of commit progress). Values >= 2 enable the pipelined
	// proposal path: the request pool's size trigger closes a batch on
	// the arrival that fills it (another entry like it would no longer
	// fit MaxBatchBytes — RequestPool.BatchFull), commits free window
	// slots that are refilled immediately, and the batch timer degrades
	// to a latency backstop that flushes partial batches.
	MaxInflightBatches int
	// Ingress, when Enabled, installs the client admission pipeline in
	// front of the request pool: per-client rate limiting with failure
	// lockout, a per-client pending cap, and overload brownout that sheds
	// over-share clients while backlog pressure is high. Enabling it also
	// switches the pool to fair (deficit-round-robin) dequeue. Disabled
	// (the zero value) the request path is byte-for-byte the classic one.
	Ingress ingress.Config

	// DigestOnlyAcks keeps ordering traffic digest-only on the critical
	// path: acks carry just the subject digest instead of embedding the
	// full marshalled subject (commit proofs bind the digest, so proofs
	// are unaffected). Receivers that fall behind recover the subject
	// through a FetchReq into the catch-up machinery instead of from ack
	// payloads.
	DigestOnlyAcks bool

	// OnBatched fires at the coordinator when a batch is formed — the
	// paper's latency clock starts here.
	OnBatched func(BatchEvent)
	// OnCommit fires when this process commits a batch or Start.
	OnCommit func(CommitEvent)
	// OnFailSignal fires when a fail-signal is emitted (Emitter true) or
	// first received (Emitter false).
	OnFailSignal func(FailSignalEvent)
	// OnInstalled fires when this process regards a new coordinator as
	// installed (IN5).
	OnInstalled func(InstallEvent)
	// OnStartTuplesIssued fires at the new coordinator when it multicasts
	// the identifier-signature tuples (IN4) — the paper's fail-over
	// latency clock stops here.
	OnStartTuplesIssued func(InstallEvent)
	// OnPairRecovered fires when a down pair optimistically resumes (SCR).
	OnPairRecovered func(InstallEvent)

	// RecoveryInterval is the SCR pair-probe period (0 disables recovery;
	// ignored in SC mode).
	RecoveryInterval time.Duration

	// Tap, when non-nil, intercepts every outbound transmission this
	// process makes (including fail-signal broadcasts). It is the fault
	// injection seam the adversary harness builds on; production configs
	// leave it nil, which keeps the zero-overhead direct send paths.
	Tap Tap

	// Metrics, when non-nil, receives the process's live ordering
	// instruments (commit watermark, view and fail-over counts, batch
	// fill, proposal-window occupancy, catch-up state). Instruments are
	// registered once here in New and updated by the event loop with
	// single atomic operations — the hot path stays allocation-free.
	Metrics *obs.Registry
	// MetricsLabels qualify this process's series (node, and group when
	// sharded). Ignored without Metrics.
	MetricsLabels []obs.Label
}

// BatchEvent reports batch formation at the coordinator.
type BatchEvent struct {
	Node     types.NodeID
	View     types.View
	FirstSeq types.Seq
	Entries  []message.OrderEntry
	At       time.Time
	// FillRatio is the batch's estimated wire bytes over MaxBatchBytes
	// (capped at 1); Inflight is the proposal-window occupancy including
	// this batch; SizeTriggered reports whether the pool's size trigger
	// closed the batch (false: the interval timer flushed it).
	FillRatio     float64
	Inflight      int
	SizeTriggered bool
}

// CommitEvent reports a commit at one process.
type CommitEvent struct {
	Node     types.NodeID
	View     types.View
	Kind     message.SubjectKind
	FirstSeq types.Seq
	LastSeq  types.Seq
	Entries  []message.OrderEntry
	At       time.Time
}

// FailSignalEvent reports fail-signal activity.
type FailSignalEvent struct {
	Node    types.NodeID
	Pair    types.Rank
	Emitter bool
	Reason  string
	At      time.Time
}

// InstallEvent reports coordinator installation progress.
type InstallEvent struct {
	Node     types.NodeID
	Rank     types.Rank
	StartSeq types.Seq
	At       time.Time
}

// Process is one SC order process (pi or p'i). It is a single-threaded
// reactor driven by a runtime environment.
type Process struct {
	cfg  Config
	topo types.Topology
	id   types.NodeID
	all  []types.NodeID

	pair    *fsp.Pair // nil for unpaired processes
	pairIdx int

	rank      types.Rank
	view      types.View
	installed bool

	failSignalled map[types.Rank]*message.FailSignal
	dumb          map[types.NodeID]bool
	dumbPairs     int

	pool       *RequestPool
	digestSize int

	// Ingress admission state (ingress.go): nil controller when disabled;
	// rejectLast throttles signed Rejected replies per client;
	// ingressAges/agesHead log admissions in order for TTL eviction,
	// swept by evictTimer.
	ingress     *ingress.Controller
	rejectLast  map[types.NodeID]time.Time
	ingressAges []admitStamp
	agesHead    int
	evictTimer  runtime.Timer

	// Receiver-side ordering state.
	nextExpected  types.Seq
	future        map[types.Seq]*message.OrderBatch
	trackers      map[types.Seq]*Tracker
	deliveredUpTo types.Seq
	committedLog  map[types.Seq]*Tracker // committed trackers by FirstSeq
	// lastCommitted is the batch tracker that reached quorum last; its
	// proof of commitment is what BackLogs and CatchUp answers carry.
	lastCommitted *Tracker
	// The slabs this process's trackers and the acks it builds are carved
	// from (message.Slab): trackers are kept and pruned in sequence order,
	// an ack is dropped once multicast and self-credited.
	trackerSlab message.Slab[Tracker]
	ackSlab     message.Slab[message.Ack]

	// Coordinator-primary state.
	nextSeq    types.Seq
	batchTimer runtime.Timer
	proposals  map[types.Seq]*message.OrderBatch
	// inflight maps FirstSeq -> LastSeq of proposed batches the delivery
	// watermark has not passed yet; len(inflight) is the pipeline
	// occupancy MaxInflightBatches caps. Cleared when the pair is deposed.
	inflight map[types.Seq]types.Seq
	// propJournal is the Checkpointer's optional proposal journal; when
	// present the proposal counter is appended after every close, so a
	// restarted primary recovers a floor below which it never proposes.
	propJournal ProposalJournaler
	// pairResume is the counterpart's next-expected proposal sequence
	// learned from its CatchUp answer (0 = not learned); proposedSince
	// blocks late adoption once this incarnation has proposed.
	pairResume    types.Seq
	proposedSince bool
	// Batch-close gauges (observability).
	lastFill            float64
	fillSum             float64
	sizeTriggeredCount  uint64
	timerTriggeredCount uint64

	// Coordinator-shadow state. deferFetchTimer retries payload fetches
	// for deferred proposals (check.go / fetch.go).
	shadowNextPropose types.Seq
	deferredProposals map[types.Seq]*deferredProposal // by FirstSeq
	deferFetchTimer   runtime.Timer

	// Install state (install.go).
	installing      bool
	backlogs        map[types.NodeID]*message.BackLog
	myStart         *message.Start
	startMsg        *message.Start
	startDigest     []byte
	startSigs       map[types.NodeID]crypto.Signature
	tuplesSent      bool
	pendingTuples   *message.StartTuples
	pendingStartSig []*message.StartSig               // tuples racing ahead of the Start
	earlyProposals  map[types.Seq]*message.OrderBatch // proposals racing ahead of our IN5
	pendingAcks     map[types.Seq][]*message.Ack
	droppedInstall  int // batches truncated during installs (observability)

	// SCR state (scr.go).
	pairEpochs    map[types.Rank]uint64
	unwillingSeen map[types.View]bool
	unwillingSent map[types.View]bool
	beatTimer     runtime.Timer
	beatSeq       uint64
	myBeatPresig  map[uint64]crypto.Signature

	// Checkpoint & catch-up state (catchup.go).
	ckptEvery      types.Seq                  // seqs between checkpoints
	lastCkptSeq    types.Seq                  // watermark of the last Save
	orderDigest    []byte                     // rolling digest over delivered subjects
	announcedWM    types.Seq                  // last durable watermark announced
	peerCkpt       map[types.NodeID]types.Seq // peers' announced watermarks
	prunedBelow    types.Seq                  // cluster watermark history was pruned below
	catchingUp     atomic.Bool                // restored; awaiting CatchUp completion (written on the event loop, read by readiness probes)
	catchupFrom    map[types.NodeID]bool      // peers that answered this catch-up
	catchupMaxUpTo types.Seq                  // highest responder watermark seen
	catchupServed  map[types.NodeID]servedMark
	catchupTimer   runtime.Timer

	// Fetch-on-miss state (fetch.go): requester-side throttles per missing
	// subject sequence and request payload, responder-side throttle per
	// requester.
	subjFetchAsked map[types.Seq]time.Time
	reqFetchAsked  map[message.ReqID]time.Time
	fetchServed    map[types.NodeID]time.Time

	// m holds the registry instruments (metrics.go); zero-valued (and
	// no-op) when the config carried no registry.
	m coreMetrics
}

var _ runtime.Process = (*Process)(nil)

// New validates the configuration and returns a process for id.
func New(id types.NodeID, cfg Config) (*Process, error) {
	if cfg.Topo.Protocol != types.SC && cfg.Topo.Protocol != types.SCR {
		return nil, fmt.Errorf("core: topology protocol %v is not SC/SCR", cfg.Topo.Protocol)
	}
	if !cfg.Topo.IsProcess(id) {
		return nil, fmt.Errorf("core: %v is not an order process of the topology", id)
	}
	if cfg.BatchInterval <= 0 {
		return nil, errors.New("core: BatchInterval must be positive")
	}
	if cfg.MaxBatchBytes <= 0 {
		return nil, errors.New("core: MaxBatchBytes must be positive")
	}
	if cfg.Delta <= 0 {
		return nil, errors.New("core: Delta must be positive")
	}
	if cfg.MaxInflightBatches < 0 {
		return nil, errors.New("core: MaxInflightBatches must not be negative")
	}
	if err := cfg.Ingress.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if cfg.Topo.Protocol == types.SCR && cfg.DumbOptimization {
		// The dumb optimization depends on property SC2, which does not
		// hold under the recovery semantics (Section 4.4).
		return nil, errors.New("core: the dumb-process optimization is unsound under SCR")
	}
	p := &Process{
		cfg:               cfg,
		topo:              cfg.Topo,
		id:                id,
		all:               cfg.Topo.AllProcesses(),
		pairIdx:           cfg.Topo.PairIndex(id),
		rank:              1,
		view:              1,
		installed:         true,
		failSignalled:     make(map[types.Rank]*message.FailSignal),
		dumb:              make(map[types.NodeID]bool),
		pool:              NewRequestPool(),
		nextExpected:      1,
		future:            make(map[types.Seq]*message.OrderBatch),
		trackers:          make(map[types.Seq]*Tracker),
		committedLog:      make(map[types.Seq]*Tracker),
		nextSeq:           1,
		proposals:         make(map[types.Seq]*message.OrderBatch),
		inflight:          make(map[types.Seq]types.Seq),
		shadowNextPropose: 1,
		deferredProposals: make(map[types.Seq]*deferredProposal),
		backlogs:          make(map[types.NodeID]*message.BackLog),
		startSigs:         make(map[types.NodeID]crypto.Signature),
		earlyProposals:    make(map[types.Seq]*message.OrderBatch),
		pendingAcks:       make(map[types.Seq][]*message.Ack),
		pairEpochs:        make(map[types.Rank]uint64),
		unwillingSeen:     make(map[types.View]bool),
		unwillingSent:     make(map[types.View]bool),
		myBeatPresig:      make(map[uint64]crypto.Signature),
		// peerCkpt exists even without a Checkpointer: any peer may run
		// durable and announce watermarks (mixed deployments), and this
		// process still answers catch-up requests from its committed log.
		peerCkpt: make(map[types.NodeID]types.Seq),
	}
	if cfg.Checkpointer != nil {
		p.ckptEvery = types.Seq(cfg.CheckpointInterval)
		if p.ckptEvery <= 0 {
			p.ckptEvery = DefaultCheckpointInterval
		}
		if cp, ok := cfg.Checkpointer.Load(); ok {
			p.restoreCheckpoint(cp)
		}
		if pj, ok := cfg.Checkpointer.(ProposalJournaler); ok {
			p.propJournal = pj
			// The journalled proposal counter floors nextSeq above the
			// (older) checkpoint: proposals run ahead of checkpoints, so
			// restoring the checkpoint alone could reuse journalled
			// sequence numbers. The floor is itself refined to the
			// shadow's exact expectation during catch-up (adoptPairResume).
			if floor, ok := pj.ProposalFloor(); ok && floor > p.nextSeq {
				p.nextSeq = floor
				p.shadowNextPropose = floor
			}
		}
		// Even without a recovered checkpoint (first boot, or a crash
		// before the first save) the catch-up round runs: peers that are
		// ahead answer with the missed history, peers that are not answer
		// with an empty CatchUp that completes the round immediately.
		p.catchingUp.Store(true)
	}
	if cfg.Ingress.Enabled {
		p.ingress = ingress.NewController(cfg.Ingress)
		p.rejectLast = make(map[types.NodeID]time.Time)
		// Fair dequeue rides with admission: once clients are being
		// charged for pool occupancy, one client's backlog must not
		// dictate every other client's ordering latency either.
		p.pool.SetFair(p.ingress.FairQuantum())
	}
	p.m = newCoreMetrics(cfg.Metrics, cfg.MetricsLabels)
	p.m.syncRegime(p)
	// Unconditional: a restarted incarnation re-attaches to its
	// predecessor's series, so a stale 1 from a mid-catch-up kill must be
	// overwritten as much as a fresh catch-up must be announced.
	if p.catchingUp.Load() {
		p.m.catchingUp.Set(1)
	} else {
		p.m.catchingUp.Set(0)
	}
	if p.pairIdx > 0 {
		counterpart, _ := cfg.Topo.PairOf(id)
		p.pair = fsp.New(fsp.Config{
			Self:             id,
			Counterpart:      counterpart,
			Rank:             types.Rank(p.pairIdx),
			Delta:            cfg.Delta,
			PresignedFailSig: cfg.PresignedFailSig,
			MirrorTraffic:    cfg.Mirror,
			Broadcast:        func(env runtime.Env, m message.Message) { p.emitAll(env, m) },
			OnDown:           p.onPairDown,
		})
	}
	return p, nil
}

// Pool exposes the request pool (the replica execution layer reads request
// payloads from it).
func (p *Process) Pool() *RequestPool { return p.pool }

// Rank returns the current coordinator candidate rank (the paper's c).
func (p *Process) Rank() types.Rank { return p.rank }

// Installed reports whether the current coordinator is installed.
func (p *Process) Installed() bool { return p.installed }

// MaxDelivered returns the highest contiguously delivered sequence number.
func (p *Process) MaxDelivered() types.Seq { return p.deliveredUpTo }

// Pair returns the fail-signal pair half, or nil for unpaired processes.
func (p *Process) Pair() *fsp.Pair { return p.pair }

// DroppedInstallBatches reports how many acked-but-uncommitted batches were
// truncated away across installs (their requests were re-ordered).
func (p *Process) DroppedInstallBatches() int { return p.droppedInstall }

// candidate returns the pair of rank r.
func (p *Process) candidate(r types.Rank) (primary, shadow types.NodeID, paired bool) {
	primary, shadow, paired, err := p.topo.Candidate(r)
	if err != nil {
		return types.Nil, types.Nil, false
	}
	return primary, shadow, paired
}

// isPrimaryNow reports whether this process is the installed coordinator's
// deciding member.
func (p *Process) isPrimaryNow() bool {
	primary, _, _ := p.candidate(p.rank)
	return p.installed && primary == p.id
}

// isShadowNow reports whether this process is the installed coordinator's
// endorsing member.
func (p *Process) isShadowNow() bool {
	_, shadow, paired := p.candidate(p.rank)
	return p.installed && paired && shadow == p.id
}

// quorumEff returns the commit quorum under the dumb-process optimization:
// n and f shrink by 2 and 1 per muted pair, so the quorum n-f shrinks by
// one per muted pair.
func (p *Process) quorumEff() int { return p.topo.Quorum() - p.dumbPairs }

// fEff returns the effective fault bound after the dumb optimization.
func (p *Process) fEff() int { return p.topo.F - p.dumbPairs }

// mayCount reports whether a process's contributions count toward quorums
// (dumb processes cannot transmit).
func (p *Process) mayCount(id types.NodeID) bool { return !p.dumb[id] }

// muted reports whether this process itself must not transmit.
func (p *Process) muted() bool { return p.dumb[p.id] }

// send/multicast wrappers enforcing the dumb-process muting. Both route
// through the Tap seam (tap.go); with no tap installed they are direct
// sends.
func (p *Process) send(env runtime.Env, to types.NodeID, m message.Message) {
	if p.muted() {
		return
	}
	p.emit(env, to, m)
}

func (p *Process) multicastAll(env runtime.Env, m message.Message) {
	if p.muted() {
		return
	}
	p.emitAll(env, m)
}

// Init implements runtime.Process.
func (p *Process) Init(env runtime.Env) {
	p.digestSize = len(env.Digest(nil))
	// Adaptive batch close: the pool signals (on this event loop — every
	// Add happens here) on the arrival that fills a batch, so full batches
	// close on size, not on the timer. The signal fires on every process
	// but onPoolTarget discards it everywhere except at an acting
	// pipelined primary.
	p.pool.SetBatchTarget(p.cfg.MaxBatchBytes, EntryOverhead+p.digestSize,
		func() { p.onPoolTarget(env) })
	if p.catchingUp.Load() {
		// Catch up on committed history before resuming ordering: a
		// restored primary must not propose into a sequence range it has
		// not recovered yet (finishCatchUp calls resumeProposing).
		p.beginCatchUp(env)
		return
	}
	p.resumeProposing(env)
}

// Receive implements runtime.Process.
func (p *Process) Receive(env runtime.Env, from types.NodeID, m message.Message) {
	p.mirrorIncoming(env, from, m)
	switch m := m.(type) {
	case *message.Request:
		p.onRequest(env, m)
	case *message.OrderBatch:
		p.onOrderBatch(env, from, m)
	case *message.Ack:
		p.onAck(env, from, m)
	case *message.FailSignal:
		p.onFailSignal(env, from, m)
	case *message.BackLog:
		p.onBackLog(env, from, m)
	case *message.PairStart:
		p.onPairStart(env, from, m)
	case *message.Start:
		p.onStart(env, from, m)
	case *message.StartSig:
		p.onStartSig(env, from, m)
	case *message.StartTuples:
		p.onStartTuples(env, from, m)
	case *message.Unwilling:
		p.onUnwilling(env, from, m)
	case *message.PairBeat:
		p.onPairBeat(env, from, m)
	case *message.Mirror:
		p.onMirror(env, from, m)
	case *message.CatchUpReq:
		p.onCatchUpReq(env, from, m)
	case *message.CatchUp:
		p.onCatchUp(env, from, m)
	case *message.FetchReq:
		p.onFetchReq(env, from, m)
	case *message.Rejected:
		p.onPeerRejected(env, from, m)
	default:
		env.Logf("core: ignoring %v from %v", m.Type(), from)
	}
}

// --- batching (coordinator primary) ---

func (p *Process) armBatchTimer(env runtime.Env) {
	if p.batchTimer != nil {
		p.batchTimer.Stop()
	}
	p.batchTimer = env.SetTimer(p.cfg.BatchInterval, func() { p.batchTick(env) })
}

// pipelined reports whether the pipelined proposal path (size-triggered
// close, bounded inflight window, commit-time refill) is enabled; off, the
// proposer is strictly interval-paced like the paper's.
func (p *Process) pipelined() bool { return p.cfg.MaxInflightBatches > 1 }

// mayPropose gates every batch close: acting primary, transmitting, pair
// collaborating, regime stable, history recovered.
func (p *Process) mayPropose() bool {
	if !p.isPrimaryNow() || p.muted() || p.installing || p.catchingUp.Load() {
		return false
	}
	return p.pair == nil || p.pair.Active()
}

// resumeProposing is where a process starts or resumes proposing: Init,
// IN5, the end of catch-up and SCR pair recovery. The pool's size trigger
// is an edge — it fires on the arrival that fills a batch — so a pool that
// filled while this process could not propose would otherwise wait out the
// backstop; running onPoolTarget here makes it a level.
func (p *Process) resumeProposing(env runtime.Env) {
	if !p.mayPropose() {
		return
	}
	p.armBatchTimer(env)
	p.onPoolTarget(env)
}

// batchTick is the interval timer's callback: the latency backstop that
// flushes a (possibly partial) batch. It re-arms only while requests
// remain pending — an idle primary's timer stays unarmed until the next
// request arrives (onRequest) instead of waking every interval.
func (p *Process) batchTick(env runtime.Env) {
	p.batchTimer = nil // this firing is spent; re-armed below as needed
	if !p.isPrimaryNow() || p.muted() {
		return // deposed; do not re-arm
	}
	if p.pair != nil && !p.pair.Active() {
		return
	}
	if !p.pipelined() || len(p.inflight) < p.cfg.MaxInflightBatches {
		p.closeBatch(env, false)
	}
	if p.pool.PendingCount() > 0 {
		p.armBatchTimer(env)
	}
}

// onPoolTarget fires (from RequestPool.Add, on this event loop) on the
// arrival that fills a batch (RequestPool.BatchFull): the adaptive close.
// In pipelined mode it proposes immediately, filling as many free window
// slots as the pool can cover with full batches; commit-time releases call
// it again to refill. Without pipelining it is ignored — the paper's
// proposer stays interval-paced.
func (p *Process) onPoolTarget(env runtime.Env) {
	if !p.pipelined() || !p.mayPropose() {
		return
	}
	for len(p.inflight) < p.cfg.MaxInflightBatches && p.pool.BatchFull() {
		if !p.closeBatch(env, true) {
			break
		}
	}
	// Whatever remains below a full batch is the backstop timer's job.
	if p.pool.PendingCount() > 0 && p.batchTimer == nil {
		p.armBatchTimer(env)
	}
}

// closeBatch forms one batch from the pool and proposes it (to the shadow
// when paired, to everyone otherwise). sizeTriggered records which
// trigger closed it. Returns whether a batch went out. Callers gate on
// mayPropose (or batchTick's equivalent checks). A batch costs three heap
// objects: its block (NewOrderBatch), its digests' block and its signed
// buffer — NextBatch's slice is the pool's, consumed here.
func (p *Process) closeBatch(env runtime.Env, sizeTriggered bool) bool {
	reqs := p.pool.NextBatch(p.cfg.MaxBatchBytes, p.digestSize)
	if len(reqs) == 0 {
		return false
	}
	batch := message.NewOrderBatch(len(reqs))
	batch.Coord, batch.View, batch.FirstSeq = p.rank, p.view, p.nextSeq
	primary, shadow, paired := p.candidate(p.rank)
	batch.Primary = primary
	batch.Shadow = types.Nil
	if paired {
		batch.Shadow = shadow
	}
	OrderEntries(env, batch.Entries, reqs)
	wireBytes := len(reqs) * (EntryOverhead + p.digestSize)
	for _, r := range reqs {
		wireBytes += len(r.Payload)
	}
	if err := message.Sign(env, batch, &batch.Sig1); err != nil {
		env.Logf("core: signing batch: %v", err)
		return false
	}
	p.nextSeq = batch.LastSeq() + 1
	p.proposedSince = true
	p.inflight[batch.FirstSeq] = batch.LastSeq()
	if p.propJournal != nil {
		// Journal the advanced counter (async, group-committed) so the
		// next incarnation's floor covers this proposal.
		p.propJournal.JournalProposal(p.nextSeq)
	}
	fill := float64(wireBytes) / float64(p.cfg.MaxBatchBytes)
	if fill > 1 {
		fill = 1
	}
	p.lastFill = fill
	p.fillSum += fill
	if sizeTriggered {
		p.sizeTriggeredCount++
	} else {
		p.timerTriggeredCount++
	}
	p.m.batchFill.Set(fill)
	p.m.inflight.SetInt(int64(len(p.inflight)))
	p.refreshIngress()
	if p.cfg.OnBatched != nil {
		p.cfg.OnBatched(BatchEvent{
			Node: p.id, View: p.view, FirstSeq: batch.FirstSeq,
			Entries: batch.Entries, At: env.Now(),
			FillRatio: fill, Inflight: len(p.inflight), SizeTriggered: sizeTriggered,
		})
	}
	if paired {
		// Figure 2: pi forwards its signed decision only to its shadow.
		p.proposals[batch.FirstSeq] = batch
		p.send(env, shadow, batch)
		p.pair.Expect(env, fsp.EndorseKey(batch.FirstSeq), 0)
	} else {
		// The (f+1)th, unpaired coordinator multicasts directly; its
		// decisions are readily accepted.
		p.multicastAll(env, batch)
	}
	return true
}

// OrderEntries fills entries — one per request, in order — with each
// request's ID and digest D(m): how every proposer (SC, CT, BFT) builds a
// batch. The digests are kept as long as the batch is, so the batch owns
// them, in one block: each is summed in scratch and copied across.
func OrderEntries(env runtime.Env, entries []message.OrderEntry, reqs []*message.Request) {
	var digests []byte
	for i, r := range reqs {
		d := env.ScratchDigest(r.SignedBody())
		if digests == nil {
			digests = make([]byte, 0, len(reqs)*len(d))
		}
		at := len(digests)
		digests = append(digests, d...)
		entries[i] = message.OrderEntry{Req: r.ID(), ReqDigest: digests[at:len(digests):len(digests)]}
	}
}

// releaseInflight drops proposal-window entries the delivery watermark
// has passed and, in pipelined mode, refills the freed slots from the
// pool immediately — commits, not timer ticks, pace a saturated pipeline.
func (p *Process) releaseInflight(env runtime.Env) {
	if len(p.inflight) == 0 {
		return
	}
	for first, last := range p.inflight {
		if last <= p.deliveredUpTo {
			delete(p.inflight, first)
		}
	}
	p.m.inflight.SetInt(int64(len(p.inflight)))
	p.refreshIngress()
	p.onPoolTarget(env)
}

// InflightProposals reports the primary's proposal-window occupancy.
func (p *Process) InflightProposals() int { return len(p.inflight) }

// BatchCloseStats reports the batch-close gauges: the last and mean
// fill ratio, and how many closes each trigger produced.
func (p *Process) BatchCloseStats() (lastFill, meanFill float64, sizeTriggered, timerTriggered uint64) {
	total := p.sizeTriggeredCount + p.timerTriggeredCount
	mean := 0.0
	if total > 0 {
		mean = p.fillSum / float64(total)
	}
	return p.lastFill, mean, p.sizeTriggeredCount, p.timerTriggeredCount
}

// NextProposeSeq exposes the primary's proposal counter (tests pin
// restart-resume semantics with it).
func (p *Process) NextProposeSeq() types.Seq { return p.nextSeq }

// BatchTimerArmed reports whether the batch timer is currently armed
// (tests pin the no-idle-spin behaviour: an idle primary holds no timer).
func (p *Process) BatchTimerArmed() bool { return p.batchTimer != nil }

// --- requests ---

func (p *Process) onRequest(env runtime.Env, req *message.Request) {
	if !p.admitRequest(env, req) {
		return
	}
	if !p.pool.Add(req) {
		return
	}
	p.observeClientQueueDepth(req.Client)
	// Arm on demand: the first request reaching an idle primary starts
	// the batch-close backstop (the timer is not left free-running on an
	// empty pool). The pool's size trigger may already have closed a full
	// batch during Add, in which case pending bytes are low again but a
	// timer for the remainder is still the right move.
	if p.batchTimer == nil && p.mayPropose() && p.pool.PendingCount() > 0 {
		p.armBatchTimer(env)
	}
	// Shadow of the acting coordinator: monitor that the primary decides
	// an order for every request (time-domain check, Section 3.1).
	if p.isShadowNow() && p.pair != nil && p.pair.Active() && !p.pool.IsOrdered(req.ID()) {
		p.pair.Expect(env, fsp.OrderKey(req.ID()), p.cfg.BatchInterval)
	}
}

// --- normal part: order batches ---

func (p *Process) onOrderBatch(env runtime.Env, from types.NodeID, b *message.OrderBatch) {
	// A 1-signed batch arriving on the pair link is the primary's proposal
	// to its shadow (Figure 2).
	if len(b.Sig2) == 0 && p.pair != nil && from == p.pair.Counterpart() && b.Shadow == p.id {
		p.onProposal(env, b)
		return
	}
	p.acceptEndorsedBatch(env, from, b)
}

// acceptEndorsedBatch runs the receiving side of the 2-to-n phase plus N1.
func (p *Process) acceptEndorsedBatch(env runtime.Env, from types.NodeID, b *message.OrderBatch) {
	if p.installing {
		return // IN1: ignore order messages until the new coordinator is installed
	}
	if b.View != p.view || b.Coord != p.rank {
		return // a foreign-view batch is ignored
	}
	primary, shadow, paired := p.candidate(p.rank)
	wantShadow := types.Nil
	if paired {
		wantShadow = shadow
	}
	if b.Primary != primary || b.Shadow != wantShadow {
		env.Logf("core: batch %d claims wrong coordinator %v/%v", b.FirstSeq, b.Primary, b.Shadow)
		return
	}
	if t, dup := p.trackers[b.FirstSeq]; dup && t.Kind == message.SubjectBatch {
		p.primaryObserveEndorsed(env, b, t.Digest)
		return
	}
	switch {
	case b.FirstSeq == p.nextExpected:
		if p.startBatchTracking(env, b) {
			p.drainFuture(env)
		}
	case b.FirstSeq > p.nextExpected:
		p.future[b.FirstSeq] = b
	default:
		// A late batch is ignored: its sequence range is already tracked,
		// committed or delivered.
	}
}

// startBatchTracking validates an in-sequence endorsed batch and performs
// N1 (multicast signed ack to all, including itself).
func (p *Process) startBatchTracking(env runtime.Env, b *message.OrderBatch) bool {
	if err := b.VerifySigs(env); err != nil {
		env.Logf("core: rejecting batch %d: %v", b.FirstSeq, err)
		return false
	}
	// Summed in scratch, kept by the tracker in its own block.
	t := NewBatchTracker(&p.trackerSlab, b, env.ScratchDigest(b.SignedBody()))
	p.trackers[b.FirstSeq] = t
	p.nextExpected = b.LastSeq() + 1
	for _, e := range b.Entries {
		p.pool.MarkOrdered(e.Req)
		if p.pair != nil {
			p.pairMet(env, fsp.OrderKey(e.Req))
		}
	}
	// Non-proposers drain their pool mirror here, so this is their
	// brownout exit point (the proposer's is closeBatch/releaseInflight).
	p.refreshIngress()
	p.primaryObserveEndorsed(env, b, t.Digest)
	p.sendAck(env, t)
	p.replayPendingAcks(env, t)
	p.checkQuorum(env, t)
	return true
}

// replayPendingAcks credits buffered acks that arrived before the subject.
func (p *Process) replayPendingAcks(env runtime.Env, t *Tracker) {
	pending := p.pendingAcks[t.FirstSeq]
	if len(pending) == 0 {
		return
	}
	delete(p.pendingAcks, t.FirstSeq)
	for _, a := range pending {
		if t.Matches(a) {
			t.Credit(a.From, a.Sig)
		}
	}
}

func (p *Process) drainFuture(env runtime.Env) {
	for {
		b, ok := p.future[p.nextExpected]
		if !ok {
			return
		}
		delete(p.future, b.FirstSeq)
		if !p.startBatchTracking(env, b) {
			return
		}
	}
}

// sendAck performs N1 for a tracker's subject.
func (p *Process) sendAck(env runtime.Env, t *Tracker) {
	if t.AckSent {
		return
	}
	t.AckSent = true
	var subject []byte
	if !p.cfg.DigestOnlyAcks {
		// Legacy redundancy: embed the full subject so a receiver that
		// missed it learns it from any ack. Digest-only mode drops this
		// n-fold copy from the critical path (the signature binds only
		// the digest, so commit proofs are unaffected) and receivers
		// recover missed subjects with a FetchReq instead.
		if t.Batch != nil {
			subject = t.Batch.Marshal()
		} else if t.StartMsg != nil {
			subject = t.StartMsg.Marshal()
		}
	}
	ack := p.ackSlab.New()
	*ack = message.Ack{
		From: p.id, Kind: t.Kind, View: t.View, FirstSeq: t.FirstSeq,
		SubjectDigest: t.Digest, Subject: subject,
	}
	if err := message.Sign(env, ack, &ack.Sig); err != nil {
		env.Logf("core: signing ack: %v", err)
		return
	}
	p.multicastAll(env, ack)
	// Mutual checking between non-coordinator pair members: expect the
	// counterpart's matching ack within Delta.
	if p.pair != nil && p.pair.Active() && !p.isPrimaryNow() && !p.isShadowNow() {
		p.pair.Expect(env, fsp.AckKey(t.View, t.FirstSeq), 0)
	}
}

// --- normal part: acks and commit ---

func (p *Process) onAck(env runtime.Env, from types.NodeID, a *message.Ack) {
	if a.From != from {
		// Acks are not relayed in SC (self-delivery carries from == p.id),
		// so a mismatched sender is spoofing.
		env.Logf("core: ack claims sender %v but came from %v", a.From, from)
		return
	}
	if err := a.VerifySig(env); err != nil {
		env.Logf("core: bad ack from %v: %v", from, err)
		return
	}
	t := p.trackers[a.FirstSeq]
	if t == nil || !t.Matches(a) {
		// The ack "also contains the received order": learn the subject
		// from it if we have not seen the order yet.
		p.learnFromAckSubject(env, a)
		t = p.trackers[a.FirstSeq]
	}
	if t == nil || !t.Matches(a) {
		// Remember acks that outran their subject (e.g. a Start we are
		// still installing); replayPendingAcks picks them up.
		if len(p.pendingAcks[a.FirstSeq]) < 64 {
			p.pendingAcks[a.FirstSeq] = append(p.pendingAcks[a.FirstSeq], a)
		}
		// Digest-only ordering: acks no longer teach us the subject, so
		// once enough of the cluster has acked a subject we do not track,
		// fetch it from an acker (throttled; fetch-on-miss fallback).
		if t == nil && a.Kind == message.SubjectBatch &&
			len(p.pendingAcks[a.FirstSeq]) >= p.quorumEff() {
			p.requestSubjectFetch(env, a.FirstSeq, a.From)
		}
		p.crossCheckCounterpartAck(env, a, nil)
		return
	}
	t.Credit(a.From, a.Sig)
	p.crossCheckCounterpartAck(env, a, t)
	p.checkQuorum(env, t)
}

// learnFromAckSubject processes the order embedded in an ack.
func (p *Process) learnFromAckSubject(env runtime.Env, a *message.Ack) {
	if len(a.Subject) == 0 {
		return
	}
	inner, err := message.Decode(a.Subject)
	if err != nil {
		return
	}
	switch inner := inner.(type) {
	case *message.OrderBatch:
		if a.Kind == message.SubjectBatch {
			p.acceptEndorsedBatch(env, a.From, inner)
		}
	case *message.Start:
		if a.Kind == message.SubjectStart {
			p.onStart(env, a.From, inner)
		}
	}
}

// crossCheckCounterpartAck performs the value-domain comparison of the
// counterpart's ack against our own for the same subject.
func (p *Process) crossCheckCounterpartAck(env runtime.Env, a *message.Ack, t *Tracker) {
	if p.pair == nil || !p.pair.Active() || a.From != p.pair.Counterpart() {
		return
	}
	p.pairMet(env, fsp.AckKey(a.View, a.FirstSeq))
	if t == nil {
		// We track this (view, seq) under a different digest: the
		// counterpart endorsed a conflicting order.
		if our, ok := p.trackers[a.FirstSeq]; ok && our.View == a.View && our.Kind == a.Kind && !our.Matches(a) {
			p.pair.Fail(env, fmt.Sprintf("value-domain: counterpart acked conflicting order at seq %d", a.FirstSeq))
			if p.pair.Status() != fsp.PermanentlyDown {
				p.pair.MarkPermanentlyDown()
			}
		}
	}
}

func (p *Process) checkQuorum(env runtime.Env, t *Tracker) {
	if t.Committed {
		return
	}
	// N2 follows N1: commit only after sending our own ack — unless we are
	// muted (dumb processes cannot transmit but still execute the protocol).
	if !t.AckSent && !p.muted() {
		return
	}
	if t.Count(p.mayCount) < p.quorumEff() {
		return
	}
	t.Committed = true
	t.proven = len(t.credits)
	p.committedLog[t.FirstSeq] = t
	if t.Batch != nil {
		p.lastCommitted = t
	}
	p.advanceDelivery(env)
}

// advanceDelivery delivers committed subjects contiguously.
func (p *Process) advanceDelivery(env runtime.Env) {
	for {
		t, ok := p.committedLog[p.deliveredUpTo+1]
		if !ok || !t.Committed {
			break
		}
		p.deliver(env, t)
	}
	p.releaseInflight(env)
}

func (p *Process) deliver(env runtime.Env, t *Tracker) {
	var last types.Seq
	var entries []message.OrderEntry
	switch {
	case t.Batch != nil:
		last = t.Batch.LastSeq()
		entries = t.Batch.Entries
		// With payload dissemination off the ordering path, a batch can
		// commit before every referenced payload arrived; fetch the
		// stragglers so the replica layer's Retry finds them (throttled).
		p.requestPayloadFetch(env, t.Batch)
	case t.StartMsg != nil:
		last = t.StartMsg.StartSeq
	}
	p.deliveredUpTo = last
	p.m.watermark.SetInt(int64(last))
	p.m.batches.Inc()
	p.m.entries.Add(uint64(len(entries)))
	if p.cfg.Checkpointer != nil {
		p.orderDigest = chainDigest(env, p.orderDigest, t.Digest)
	}
	if p.cfg.OnCommit != nil {
		p.cfg.OnCommit(CommitEvent{
			Node: p.id, View: t.View, Kind: t.Kind,
			FirstSeq: t.FirstSeq, LastSeq: last,
			Entries: entries, At: env.Now(),
		})
	}
	p.saveCheckpointIfDue(env)
}

// --- mirroring ---

// mirrorIncoming forwards a copy of every asynchronous-network message to
// the counterpart (Section 3.1(i)). Pair-link traffic (anything from the
// counterpart) is not itself mirrored back.
func (p *Process) mirrorIncoming(env runtime.Env, from types.NodeID, m message.Message) {
	if p.pair == nil || !p.cfg.Mirror || p.muted() {
		return
	}
	if from == p.id || from == p.pair.Counterpart() {
		return
	}
	if m.Type() == message.TMirror {
		return
	}
	p.pair.Mirror(env, message.MirrorRecv, from, m.Marshal())
}

// onMirror consumes a counterpart's mirrored message: requests are added
// to the pool (the shadow may learn a request from the mirror before the
// client's own copy arrives); other mirrored traffic needs no action
// beyond its transfer cost.
func (p *Process) onMirror(env runtime.Env, from types.NodeID, m *message.Mirror) {
	if p.pair == nil || from != p.pair.Counterpart() {
		return
	}
	inner, err := m.InnerMessage()
	if err != nil {
		return
	}
	if req, ok := inner.(*message.Request); ok {
		p.onRequest(env, req)
	}
}
