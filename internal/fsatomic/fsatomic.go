// Package fsatomic writes files crash-atomically: the data goes to a
// temporary file in the destination's directory, is fsynced, and is renamed
// over the destination, so a reader (or a process restarted after a crash)
// sees either the complete old contents or the complete new contents —
// never a torn mixture. The ingest server's durable frontier and the
// streaming session checkpoint both depend on this property.
package fsatomic

import (
	"os"
	"path/filepath"

	"jportal/internal/iofault"
)

// WriteFile atomically replaces path with data. The temporary file is
// created in path's directory (rename is only atomic within a filesystem),
// fsynced before the rename, and the directory is fsynced after it so the
// rename itself survives a crash.
//
// Every create, write and fsync in the sequence goes through fsys
// (iofault.OS for the real filesystem), so the storage fault injector can
// sit beneath the atomic commit: a fault at any step leaves the
// destination untouched (the temp file is removed, the rename never
// happens).
func WriteFile(fsys iofault.FS, path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, "."+filepath.Base(path)+".tmp-")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	// Any failure past this point must not leave the temp file behind.
	cleanup := func(err error) error {
		tmp.Close()
		fsys.Remove(tmpName)
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(err)
	}
	if err := tmp.Chmod(perm); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		return cleanup(err)
	}
	if err := fsys.Rename(tmpName, path); err != nil {
		fsys.Remove(tmpName)
		return err
	}
	// Fsync the parent directory after the rename: without it a crash
	// immediately after commit can lose the directory entry even though
	// the inode's data is durable. Filesystems that cannot fsync a
	// directory (some network mounts) return an error from Sync; the
	// rename itself still happened, so that error is not fatal to
	// atomicity, only to durability — it is still reported.
	return fsys.SyncDir(dir)
}
