package obs

import (
	"fmt"
	"os"
	"path/filepath"
)

// This file holds the crash-safe write shared by every result writer
// in the repo: the trace/time-series exporters, the run report, the
// figure-table CSV writer and the benchmark JSON writer. Each publishes
// a whole file with temp-file + fsync + rename, so a killed process
// leaves either the previous complete file or the new complete file,
// never a torn one.

// AtomicFile is an io.WriteCloser that stages writes in a temp file in
// the destination directory and publishes them at Close via fsync +
// rename. Until Close succeeds the destination is untouched; Abort (or
// a Close error) removes the temp file.
type AtomicFile struct {
	f    *os.File
	path string
	done bool
}

// CreateAtomic starts an atomic write to path.
func CreateAtomic(path string) (*AtomicFile, error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return nil, fmt.Errorf("obs: atomic create %s: %w", path, err)
	}
	return &AtomicFile{f: f, path: path}, nil
}

// Write implements io.Writer.
func (a *AtomicFile) Write(p []byte) (int, error) { return a.f.Write(p) }

// Close fsyncs the staged content, renames it over the destination,
// and fsyncs the directory so the rename itself survives a crash.
func (a *AtomicFile) Close() error {
	if a.done {
		return nil
	}
	a.done = true
	tmp := a.f.Name()
	if err := a.f.Sync(); err != nil {
		a.f.Close()
		os.Remove(tmp)
		return fmt.Errorf("obs: atomic sync %s: %w", a.path, err)
	}
	if err := a.f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("obs: atomic close %s: %w", a.path, err)
	}
	if err := os.Rename(tmp, a.path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("obs: atomic publish %s: %w", a.path, err)
	}
	return syncDir(filepath.Dir(a.path))
}

// Abort discards the staged content, leaving the destination untouched.
// Safe to call after Close (no-op).
func (a *AtomicFile) Abort() {
	if a.done {
		return
	}
	a.done = true
	tmp := a.f.Name()
	a.f.Close()
	os.Remove(tmp)
}

// WriteFileAtomic writes data to path through an AtomicFile.
func WriteFileAtomic(path string, data []byte) error {
	a, err := CreateAtomic(path)
	if err != nil {
		return err
	}
	if _, err := a.Write(data); err != nil {
		a.Abort()
		return fmt.Errorf("obs: atomic write %s: %w", path, err)
	}
	return a.Close()
}

// syncDir fsyncs a directory so a just-renamed entry is durable. Some
// filesystems refuse to fsync directories; that is not worth failing a
// completed write over.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	d.Sync()
	return nil
}
