// Package walfault provides a fault-injecting storage.WALFile for
// crash-simulation tests: it can fail fsync, the way a log device that
// has gone away does. Inject it through engine.Config.WALOpen /
// storage.WALOptions.OpenFile.
package walfault

import (
	"os"
	"sync"

	"repro/internal/storage"
)

// File wraps an *os.File as a storage.WALFile whose fsync can be made
// to fail.
type File struct {
	*os.File
	mu       sync.Mutex
	failSync error
}

// Open opens path in append mode, wrapped for fault injection.
func Open(path string) (*File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return &File{File: f}, nil
}

// Opener adapts Open to the storage.WALOptions.OpenFile seam, handing
// each opened file to register (so the test can arm faults on it).
func Opener(register func(*File)) func(string) (storage.WALFile, error) {
	return func(path string) (storage.WALFile, error) {
		f, err := Open(path)
		if err != nil {
			return nil, err
		}
		if register != nil {
			register(f)
		}
		return f, nil
	}
}

// FailSync makes every subsequent Sync return err (nil re-arms success).
func (w *File) FailSync(err error) {
	w.mu.Lock()
	w.failSync = err
	w.mu.Unlock()
}

// Sync fsyncs the backing file unless armed to fail.
func (w *File) Sync() error {
	w.mu.Lock()
	err := w.failSync
	w.mu.Unlock()
	if err != nil {
		return err
	}
	return w.File.Sync()
}
