package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// blockFirstFsync installs an fsync hook that holds the first fsync of any
// log opened afterwards until release is called; entered is closed once
// that fsync is waiting. The hook is removed, and the fsync released, when
// the test ends.
func blockFirstFsync(t *testing.T) (entered <-chan struct{}, release func()) {
	t.Helper()
	in, out := make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	var once sync.Once
	release = func() { once.Do(func() { close(out) }) }
	restore := SetFsyncHook(func(f *os.File) error {
		if calls.Add(1) == 1 {
			close(in)
			<-out
		}
		return f.Sync()
	})
	t.Cleanup(func() {
		release()
		restore()
	})
	return in, release
}

// within fails the test unless done is closed within a few seconds.
func within(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s waited for a blocked fsync", what)
	}
}

// TestAppendDoesNotWaitForFsync: while a group commit sits in its fsync,
// appends from another goroutine return at once, and SyncedLSN moves only
// when the fsync completes, and then only to the LSN the commit flushed.
func TestAppendDoesNotWaitForFsync(t *testing.T) {
	entered, release := blockFirstFsync(t)
	l, err := Open(Options{Dir: t.TempDir(), SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	defer release() // before Close, which waits for the blocked commit
	first, err := l.Append([]byte("before the commit"))
	if err != nil {
		t.Fatal(err)
	}
	synced := make(chan error, 1)
	go func() { synced <- l.Sync() }()
	<-entered

	var last LSN
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			lsn, err := l.Append([]byte(fmt.Sprintf("during the fsync %d", i)))
			if err != nil {
				t.Error(err)
				return
			}
			last = lsn
		}
	}()
	within(t, done, "Append")
	if got := l.SyncedLSN(); got != 0 {
		t.Fatalf("SyncedLSN = %d while the only fsync is blocked, want 0", got)
	}

	release()
	if err := <-synced; err != nil {
		t.Fatal(err)
	}
	if got := l.SyncedLSN(); got != first {
		t.Fatalf("SyncedLSN = %d after the commit, want %d: appends made during its fsync are not covered", got, first)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := l.SyncedLSN(); got != last {
		t.Fatalf("SyncedLSN = %d after a second commit, want %d", got, last)
	}
}

// TestRotationDuringBlockedFsync: rotations go on while a group commit is
// blocked in its fsync, and a crash after further rotations recovers a
// clean prefix holding every record up to the last SyncedLSN seen.
func TestRotationDuringBlockedFsync(t *testing.T) {
	entered, release := blockFirstFsync(t)
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, SyncInterval: -1, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	app := func(n int) {
		for ; n > 0; n-- {
			rec := bytes.Repeat([]byte{byte(len(want))}, 60)
			if _, err := l.Append(rec); err != nil {
				t.Error(err)
				return
			}
			want = append(want, rec)
		}
	}
	app(3)
	synced := make(chan error, 1)
	go func() { synced <- l.Sync() }()
	<-entered

	done := make(chan struct{})
	go func() {
		defer close(done)
		app(30)
	}()
	within(t, done, "a rotating Append")
	if st := l.Stats(); st.Segments < 10 {
		t.Fatalf("%d segments after 33 records of 60 bytes at SegmentBytes 128, want rotations", st.Segments)
	}
	if got := l.SyncedLSN(); got != 0 {
		t.Fatalf("SyncedLSN = %d while the only fsync is blocked", got)
	}
	release()
	if err := <-synced; err != nil {
		t.Fatal(err)
	}
	app(5)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	seen := l.SyncedLSN()
	if seen != LSN(len(want)) {
		t.Fatalf("SyncedLSN = %d after a commit, want %d", seen, len(want))
	}
	app(7) // rotates again; never synced
	l.Crash()

	l2, err := Open(Options{Dir: dir, SyncInterval: -1, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := collect(t, l2)
	if len(got) < int(seen) || len(got) > len(want) {
		t.Fatalf("recovered %d records, want between %d (last SyncedLSN) and %d", len(got), seen, len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("recovered record %d is not the appended one: not a clean prefix", i+1)
		}
	}
}

// TestOneFsyncAtATime: the logs of a process take turns to fsync, so while
// one log's fsync is blocked another log's group commit waits, and its
// appends do not.
func TestOneFsyncAtATime(t *testing.T) {
	entered, release := blockFirstFsync(t)
	open := func() *Log {
		l, err := Open(Options{Dir: t.TempDir(), SyncInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	a, b := open(), open()
	defer a.Close()
	defer b.Close()
	defer release() // before the Closes, which wait for the blocked commit
	if _, err := a.Append([]byte("a")); err != nil {
		t.Fatal(err)
	}
	go func() { _ = a.Sync() }()
	<-entered

	appended := make(chan struct{})
	go func() {
		defer close(appended)
		if _, err := b.Append([]byte("b")); err != nil {
			t.Error(err)
		}
	}()
	within(t, appended, "another log's Append")
	synced := make(chan error, 1)
	go func() { synced <- b.Sync() }()
	select {
	case err := <-synced:
		t.Fatalf("another log's Sync returned (%v) while an fsync was blocked", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	if err := <-synced; err != nil {
		t.Fatal(err)
	}
	if got := b.SyncedLSN(); got != 1 {
		t.Fatalf("SyncedLSN = %d after its turn, want 1", got)
	}
}

// TestSyncAndCloseFsyncRotatedSegments: with no background flusher, the
// segments a rotation hands over wait for the next explicit group commit,
// Sync or Close, which fsyncs and closes them and fsyncs the directory
// that holds the new ones.
func TestSyncAndCloseFsyncRotatedSegments(t *testing.T) {
	var mu sync.Mutex
	var seen []*os.File
	defer SetFsyncHook(func(f *os.File) error {
		mu.Lock()
		seen = append(seen, f)
		mu.Unlock()
		return f.Sync()
	})()
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, SyncInterval: -1, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	rec := bytes.Repeat([]byte("r"), 60)
	appendN := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := l.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	// check takes the fsyncs since the last call and wants every segment
	// file in dir fsynced, every one but active closed, and the directory
	// fsynced.
	check := func(what string, active string) {
		t.Helper()
		mu.Lock()
		got := seen
		seen = nil
		mu.Unlock()
		synced := map[string]bool{}
		for _, f := range got {
			synced[f.Name()] = true
			if f.Name() == dir || f.Name() == active {
				continue
			}
			if _, err := f.Stat(); !errors.Is(err, os.ErrClosed) {
				t.Errorf("%s left rotated segment %s open", what, filepath.Base(f.Name()))
			}
		}
		if !synced[dir] {
			t.Errorf("%s did not fsync the directory after creating segments", what)
		}
		segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
		for _, s := range segs {
			if !synced[s] {
				t.Errorf("%s did not fsync segment %s", what, filepath.Base(s))
			}
		}
	}

	appendN(5)
	mu.Lock()
	early := len(seen)
	mu.Unlock()
	if early != 0 {
		t.Fatalf("%d fsyncs before any group commit", early)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	sort.Strings(segs)
	check("Sync", segs[len(segs)-1])

	l.TruncateBefore(l.NextLSN()) // only fresh segments are left to check
	appendN(5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	check("Close", "")
}

var errInjected = errors.New("injected EIO")

// failingFsync installs an fsync hook that fails every fsync while fail is
// set, counts the fsyncs that reached it and closes failed at the first
// one it failed.
func failingFsync(t *testing.T) (fail *atomic.Bool, calls *atomic.Int32, failed <-chan struct{}) {
	t.Helper()
	fail, calls = new(atomic.Bool), new(atomic.Int32)
	first := make(chan struct{})
	var once sync.Once
	t.Cleanup(SetFsyncHook(func(f *os.File) error {
		calls.Add(1)
		if fail.Load() {
			once.Do(func() { close(first) })
			return errInjected
		}
		return f.Sync()
	}))
	return fail, calls, first
}

// TestStickyFsyncFailure: after one failed fsync the log is failed for
// good: SyncedLSN stays, Append, Sync and Close return the first error,
// and no fsync is ever tried again, even one that would now succeed.
func TestStickyFsyncFailure(t *testing.T) {
	fail, calls, _ := failingFsync(t)
	l, err := Open(Options{Dir: t.TempDir(), SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	durable := l.SyncedLSN()
	if _, err := l.Append([]byte("lost")); err != nil {
		t.Fatal(err)
	}
	fail.Store(true)
	if err := l.Sync(); !errors.Is(err, errInjected) {
		t.Fatalf("Sync = %v, want the injected error", err)
	}
	fail.Store(false) // a retry would succeed now; none may happen
	tried := calls.Load()
	if _, err := l.Append([]byte("after")); !errors.Is(err, errInjected) {
		t.Fatalf("Append after a failed fsync = %v, want the injected error", err)
	}
	if err := l.Sync(); !errors.Is(err, errInjected) {
		t.Fatalf("second Sync = %v, want the injected error", err)
	}
	if err := l.Close(); !errors.Is(err, errInjected) {
		t.Fatalf("Close = %v, want the injected error", err)
	}
	if got := l.SyncedLSN(); got != durable {
		t.Fatalf("SyncedLSN = %d after a failed fsync, want %d", got, durable)
	}
	if got := calls.Load(); got != tried {
		t.Fatalf("%d fsyncs after the failure, want none", got-tried)
	}
}

// TestStickyFsyncFailureStopsFlusher: the background flusher stops at its
// first failed commit and never fsyncs again.
func TestStickyFsyncFailureStopsFlusher(t *testing.T) {
	fail, calls, failed := failingFsync(t)
	fail.Store(true)
	l, err := Open(Options{Dir: t.TempDir(), SyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("never durable")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-failed:
	case <-time.After(5 * time.Second):
		t.Fatal("the flusher never tried an fsync")
	}
	fail.Store(false)
	tried := calls.Load()
	// Nothing signals an fsync that is never tried: give the flusher
	// twenty periods in which a retry would now succeed.
	time.Sleep(20 * time.Millisecond)
	if got := calls.Load(); got != tried {
		t.Fatalf("the flusher tried %d more fsyncs after a failure", got-tried)
	}
	if got := l.SyncedLSN(); got != 0 {
		t.Fatalf("SyncedLSN = %d, want 0: no fsync succeeded", got)
	}
	if err := l.Close(); !errors.Is(err, errInjected) {
		t.Fatalf("Close = %v, want the injected error", err)
	}
}

// TestAppendAllocFree: a buffered append costs no heap object.
func TestAppendAllocFree(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir(), SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rec := bytes.Repeat([]byte("a"), 128)
	if n := testing.AllocsPerRun(1000, func() { _, _ = l.Append(rec) }); n != 0 {
		t.Fatalf("Append allocates %v objects, want 0", n)
	}
}
