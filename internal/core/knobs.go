package core

import (
	"errors"
	"fmt"
	"time"

	"github.com/sof-repro/sof/internal/ingress"
	"github.com/sof-repro/sof/internal/types"
)

// Knobs are a deployment's ordering knobs, declared once. An entry point
// fills one value — sofnode binds its flags to the fields, harness.Options
// and sof.Config each map onto it in one function — node.Spec carries it,
// and every order process receives it unchanged: Config embeds it (SC,
// SCR and CT), and BFT reads its batching knobs from it. WithDefaults is
// the one statement of its defaults, Check the one statement of the
// values an order process refuses.
type Knobs struct {
	// BatchInterval is the paper's batching-interval: the coordinator
	// proposes one batch per interval.
	BatchInterval time.Duration
	// MaxBatchBytes is the paper's batch_size (1 KB in the evaluation).
	MaxBatchBytes int
	// Delta is the differential delay estimate for intra-pair time-domain
	// checks (assumption 3(a)(i)/3(b)(i)).
	Delta time.Duration
	// ViewChangeTimeout is how long a BFT backup waits for a known request
	// to commit before voting the primary out (0 = 10 s). BFT only.
	ViewChangeTimeout time.Duration
	// Mirror enables pair-link mirroring of asynchronous-network traffic
	// (Section 3.1 collaboration (i)).
	Mirror bool
	// PadBacklogBytes pads BackLog messages, letting the Figure 6
	// experiments control BackLog size.
	PadBacklogBytes int
	// RecoveryInterval is the SCR pair-probe period (0 disables recovery;
	// ignored in SC mode).
	RecoveryInterval time.Duration
	// CheckpointInterval is the number of delivered sequence numbers
	// between durable protocol checkpoints (0 = DefaultCheckpointInterval;
	// negative: node assembly opens no checkpoint store). Ignored without
	// a Checkpointer.
	CheckpointInterval int
	// MaxInflightBatches caps how many proposed-but-undelivered batches
	// the primary keeps outstanding. Values <= 1 preserve the paper's
	// strictly interval-paced proposer (one batch per batch tick,
	// regardless of commit progress). Values >= 2 enable the pipelined
	// proposal path: the request pool's size trigger closes a batch on
	// the arrival that fills it (another entry like it would no longer
	// fit MaxBatchBytes — RequestPool.BatchFull), commits free window
	// slots that are refilled immediately, and the batch timer degrades
	// to a latency backstop that flushes partial batches. A pipelined
	// process also keeps ordering traffic digest-only on the critical
	// path: its acks carry just the subject digest instead of embedding
	// the full marshalled subject (commit proofs bind the digest, so
	// proofs are unaffected), and a receiver that falls behind recovers
	// the subject through a FetchReq instead of from ack payloads. Not
	// under BFT, whose proposer is interval-paced.
	MaxInflightBatches int
	// Ingress, when Enabled, installs the client admission pipeline in
	// front of the request pool: per-client rate limiting with failure
	// lockout, a per-client pending cap, and overload brownout that sheds
	// over-share clients while backlog pressure is high. The pool dequeues
	// by deficit round robin across clients with or without it. Disabled
	// (the zero value) no admission check runs. Not under BFT.
	Ingress ingress.Config
}

// WithDefaults fills the unset knobs that have a default: the study's
// 100 ms batching interval, 1 KB batches and Delta of 5 s, and a
// pair-probe period of Delta.
func (k Knobs) WithDefaults() Knobs {
	if k.BatchInterval == 0 {
		k.BatchInterval = 100 * time.Millisecond
	}
	if k.MaxBatchBytes == 0 {
		k.MaxBatchBytes = 1024
	}
	if k.Delta == 0 {
		k.Delta = 5 * time.Second
	}
	if k.RecoveryInterval == 0 {
		k.RecoveryInterval = k.Delta
	}
	return k
}

// Check rejects the values an order process of proto refuses.
func (k Knobs) Check(proto types.Protocol) error {
	paired := proto == types.SC || proto == types.SCR
	for _, rule := range []struct {
		bad  bool
		what string
	}{
		{k.BatchInterval <= 0, "BatchInterval must be positive"},
		{k.MaxBatchBytes <= 0, "MaxBatchBytes must be positive"},
		{paired && k.Delta <= 0, "Delta must be positive"},
		{k.MaxInflightBatches < 0, "MaxInflightBatches must not be negative"},
		{proto == types.BFT && k.MaxInflightBatches > 1, "MaxInflightBatches > 1 is not supported under BFT"},
		{proto == types.BFT && k.Ingress.Enabled, "Ingress is not supported under BFT"},
	} {
		if rule.bad {
			return errors.New("core: " + rule.what)
		}
	}
	if err := k.Ingress.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}
