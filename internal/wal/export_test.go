package wal

import "os"

// SetFsyncHook makes every log opened from now on fsync files and its
// directory through fn instead of (*os.File).Sync; restore puts the
// default back. Tests use it to block or fail fsyncs.
func SetFsyncHook(fn func(f *os.File) error) (restore func()) {
	prev := fsyncFile
	fsyncFile = fn
	return func() { fsyncFile = prev }
}
