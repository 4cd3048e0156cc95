package wal_test

import (
	"errors"
	"os"
	"sync/atomic"
	"testing"

	"github.com/sof-repro/sof/internal/core"
	"github.com/sof-repro/sof/internal/types"
	"github.com/sof-repro/sof/internal/wal"
	"github.com/sof-repro/sof/internal/wal/protolog"
)

// TestStickyFsyncFailureStopsDurableWatermark: peers prune history behind
// the watermark a protolog store announces, so once an fsync under it has
// failed the durable watermark must stop where it was, through later saves
// and syncs, and no fsync may be tried again.
func TestStickyFsyncFailureStopsDurableWatermark(t *testing.T) {
	errInjected := errors.New("injected EIO")
	var fail atomic.Bool
	var calls atomic.Int32
	defer wal.SetFsyncHook(func(f *os.File) error {
		calls.Add(1)
		if fail.Load() {
			return errInjected
		}
		return f.Sync()
	})()
	s, err := protolog.Open(protolog.Options{Dir: t.TempDir(), SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	save := func(wm types.Seq) types.Seq {
		return s.Save(core.CheckpointState{View: 1, Rank: 1, DeliveredUpTo: wm, NextSeq: wm + 1})
	}
	save(10)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if d := s.DurableWatermark(); d != 10 {
		t.Fatalf("DurableWatermark = %d after a good sync, want 10", d)
	}
	save(20)
	fail.Store(true)
	if err := s.Sync(); !errors.Is(err, errInjected) {
		t.Fatalf("Sync = %v, want the injected error", err)
	}
	fail.Store(false) // a retried fsync would succeed now; none may happen
	tried := calls.Load()
	if d := save(30); d != 10 {
		t.Fatalf("Save after a failed fsync reports %d durable, want 10", d)
	}
	if err := s.Sync(); !errors.Is(err, errInjected) {
		t.Fatalf("second Sync = %v, want the injected error", err)
	}
	if d := s.DurableWatermark(); d != 10 {
		t.Fatalf("DurableWatermark = %d after a failed fsync, want 10", d)
	}
	if err := s.Close(); !errors.Is(err, errInjected) {
		t.Fatalf("Close = %v, want the injected error", err)
	}
	if got := calls.Load(); got != tried {
		t.Fatalf("%d fsyncs after the failure, want none", got-tried)
	}
}
