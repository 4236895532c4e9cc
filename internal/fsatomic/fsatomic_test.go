package fsatomic

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"jportal/internal/iofault"
)

func TestWriteFileCreatesAndReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state")
	if err := WriteFile(iofault.OS, path, []byte("one"), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "one" {
		t.Fatalf("read back: %q, %v", got, err)
	}
	if err := WriteFile(iofault.OS, path, []byte("two, longer"), 0o644); err != nil {
		t.Fatalf("WriteFile replace: %v", err)
	}
	got, _ = os.ReadFile(path)
	if string(got) != "two, longer" {
		t.Fatalf("after replace: %q", got)
	}
	// No temp droppings left behind.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "state" {
		t.Fatalf("unexpected directory contents: %v", ents)
	}
}

func TestWriteFileMissingDir(t *testing.T) {
	err := WriteFile(iofault.OS, filepath.Join(t.TempDir(), "no", "such", "dir", "f"), []byte("x"), 0o644)
	if err == nil {
		t.Fatal("expected error writing into a missing directory")
	}
}

// spyFS records the operation sequence WriteFile performs, delegating
// everything to the real filesystem.
type spyFS struct {
	ops []string
}

func (s *spyFS) OpenFile(name string, flag int, perm os.FileMode) (iofault.File, error) {
	s.ops = append(s.ops, "open")
	return iofault.OS.OpenFile(name, flag, perm)
}

func (s *spyFS) CreateTemp(dir, pattern string) (iofault.File, error) {
	s.ops = append(s.ops, "createtemp")
	f, err := iofault.OS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &spyFile{File: f, spy: s}, nil
}

func (s *spyFS) ReadFile(name string) ([]byte, error) {
	s.ops = append(s.ops, "readfile")
	return iofault.OS.ReadFile(name)
}

func (s *spyFS) Rename(oldpath, newpath string) error {
	s.ops = append(s.ops, "rename")
	return iofault.OS.Rename(oldpath, newpath)
}

func (s *spyFS) Remove(name string) error {
	s.ops = append(s.ops, "remove")
	return iofault.OS.Remove(name)
}

func (s *spyFS) SyncDir(dir string) error {
	s.ops = append(s.ops, "syncdir:"+filepath.Base(dir))
	return iofault.OS.SyncDir(dir)
}

type spyFile struct {
	iofault.File
	spy *spyFS
}

func (f *spyFile) Sync() error {
	f.spy.ops = append(f.spy.ops, "fsync")
	return f.File.Sync()
}

// TestWriteFileSyncsDirAfterRename is the durability regression test: the
// commit sequence must fsync the temp file BEFORE the rename and fsync the
// parent directory AFTER it — a crash right after the rename must not be
// able to lose the directory entry.
func TestWriteFileSyncsDirAfterRename(t *testing.T) {
	dir := t.TempDir()
	spy := &spyFS{}
	if err := WriteFile(spy, filepath.Join(dir, "state"), []byte("payload"), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	want := []string{"createtemp", "fsync", "rename", "syncdir:" + filepath.Base(dir)}
	if len(spy.ops) != len(want) {
		t.Fatalf("op sequence = %v, want %v", spy.ops, want)
	}
	for i := range want {
		if spy.ops[i] != want[i] {
			t.Fatalf("op[%d] = %q, want %q (full sequence %v)", i, spy.ops[i], want[i], spy.ops)
		}
	}
}

// TestWriteFileFaultLeavesDestinationIntact pins the atomicity guarantee
// under injected storage faults: whatever step fails — create, write,
// fsync — the destination keeps its old contents and no temp file is left
// behind.
func TestWriteFileFaultLeavesDestinationIntact(t *testing.T) {
	for _, m := range []iofault.Matrix{
		{Seed: 1, ENOSPC: 1},
		{Seed: 1, WriteErr: 1},
		{Seed: 1, TornWrite: 1},
		{Seed: 1, SyncErr: 1},
	} {
		dir := t.TempDir()
		path := filepath.Join(dir, "state")
		if err := WriteFile(iofault.OS, path, []byte("old"), 0o644); err != nil {
			t.Fatal(err)
		}
		fsys := iofault.NewInjector(m, nil).FS("t")
		err := WriteFile(fsys, path, []byte("new and longer"), 0o644)
		if err == nil {
			t.Fatalf("matrix %+v: write succeeded, want fault", m)
		}
		if !errors.Is(err, syscall.ENOSPC) && !errors.Is(err, syscall.EIO) {
			t.Fatalf("matrix %+v: error %v is not an injected errno", m, err)
		}
		got, rerr := os.ReadFile(path)
		if rerr != nil || string(got) != "old" {
			t.Fatalf("matrix %+v: destination damaged: %q, %v", m, got, rerr)
		}
		ents, _ := os.ReadDir(dir)
		if len(ents) != 1 {
			t.Fatalf("matrix %+v: temp droppings left: %v", m, ents)
		}
	}
}
