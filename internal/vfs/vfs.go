// Package vfs abstracts the filesystem operations the persistence path
// performs — file I/O, renames, directory fsyncs — behind a small interface
// so the crash-safety layer can be exercised against a fault-injecting
// implementation (internal/vfs/faultfs) as well as the real OS. Every
// durability-relevant operation the engine, WAL, and snapshot files perform flows
// through an FS, which is what makes the fault-injection recovery suite's
// crash-point enumeration exhaustive rather than best-effort.
package vfs

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// File is an open file handle. Offsets are explicit (ReadAt/WriteAt) so
// callers own their positioning and the interface stays trivially wrappable.
type File interface {
	io.ReaderAt
	io.WriterAt
	io.Closer
	// Truncate changes the file's size.
	Truncate(size int64) error
	// Sync flushes the file's contents to stable storage.
	Sync() error
	// Stat reports the file's metadata (notably its size).
	Stat() (fs.FileInfo, error)
}

// FS is the set of filesystem operations the persistence path uses.
type FS interface {
	// OpenFile opens a file with the given flags and permissions.
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// MkdirAll creates a directory tree.
	MkdirAll(path string, perm fs.FileMode) error
	// Glob lists the files matching a shell pattern.
	Glob(pattern string) ([]string, error)
	// Stat reports a file's metadata.
	Stat(name string) (fs.FileInfo, error)
	// SyncDir fsyncs a directory, making renames and file creations under
	// it durable.
	SyncDir(dir string) error
}

// OS is the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) Glob(pattern string) ([]string, error) { return filepath.Glob(pattern) }

func (osFS) Stat(name string) (fs.FileInfo, error) { return os.Stat(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
