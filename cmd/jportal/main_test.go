package main

import (
	"os"
	"path/filepath"
	"testing"

	"jportal"
)

func TestLoadTargetSubjectAndFile(t *testing.T) {
	prog, threads, name, err := loadTarget("fop", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if name != "fop" || len(threads) == 0 || len(prog.Methods) == 0 {
		t.Fatalf("subject load: %s %d %d", name, len(threads), len(prog.Methods))
	}
	prog, threads, name, err = loadTarget("testdata/fib.jasm", 1)
	if err != nil {
		t.Fatal(err)
	}
	if name != "fib.jasm" || len(threads) != 1 || prog.MethodByName("Fib.fib") == nil {
		t.Fatalf("jasm load: %s", name)
	}
	if _, _, _, err := loadTarget("not-a-subject", 1); err == nil {
		t.Fatal("unknown subject accepted")
	}
	if _, _, _, err := loadTarget("missing.jasm", 1); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestCommandsSmoke(t *testing.T) {
	// The commands print to stdout; we only assert they succeed.
	if err := cmdSubjects([]string{"-scale", "0.1"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdRun([]string{"-scale", "0.2", "testdata/fib.jasm"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdAnalyze([]string{"-scale", "0.2", "testdata/fib.jasm"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdReport([]string{"-scale", "0.2", "-top", "3", "testdata/fib.jasm"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdDisasm([]string{"testdata/fib.jasm"}); err != nil {
		t.Fatal(err)
	}
}

func TestCollectDecodeRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "arch")
	if err := cmdCollect([]string{"-scale", "0.2", "-out", dir, "luindex"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdDecode([]string{dir}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, jportal.StreamFileName)); err != nil {
		t.Fatal(err)
	}
}

func TestExpErrors(t *testing.T) {
	if err := cmdExp([]string{"not-an-experiment"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if err := cmdRun([]string{}); err == nil {
		t.Fatal("missing target accepted")
	}
}
