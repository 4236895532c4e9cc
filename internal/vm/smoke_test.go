package vm

import (
	"testing"

	"jportal/internal/bytecode"
	"jportal/internal/pt"
	"jportal/internal/source"
)

const fibSrc = `
method Test.fib(1) returns int {
    iload 0
    iconst 2
    if_icmpge Lrec
    iload 0
    ireturn
Lrec:
    iload 0
    iconst 1
    isub
    invokestatic Test.fib
    iload 0
    iconst 2
    isub
    invokestatic Test.fib
    iadd
    ireturn
}

method Test.main(0) {
    iconst 15
    invokestatic Test.fib
    istore 0
    return
}

entry Test.main
`

func TestSmokeFib(t *testing.T) {
	prog := bytecode.MustAssemble(fibSrc)
	m := New(prog, DefaultConfig())
	col := pt.Traits().NewCollector(source.DefaultCollectorConfig(), m.Cfg.Cores)
	m.Tracer = col
	stats, err := m.Run([]ThreadSpec{{Method: prog.Entry}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ExecutedBytecodes == 0 {
		t.Fatal("no bytecodes executed")
	}
	traces := col.Finish(m.FinalTSC())
	var packets int
	for _, tr := range traces {
		packets += len(tr.Items)
	}
	if packets == 0 {
		t.Fatal("no packets collected")
	}
	if stats.Compilations == 0 {
		t.Error("fib(15) should have triggered JIT compilation")
	}
	t.Logf("bytecodes=%d (interp=%d jit=%d) cycles=%d compilations=%d packets=%d genBytes=%d",
		stats.ExecutedBytecodes, stats.InterpBytecodes, stats.JITBytecodes,
		stats.Cycles, stats.Compilations, packets, col.GeneratedBytes())
}

func TestSmokeSemantics(t *testing.T) {
	src := `
method T.main(0) returns int {
    iconst 10
    newarray
    istore 0
    iconst 0
    istore 1
Lloop:
    iload 1
    iconst 10
    if_icmpge Ldone
    iload 0
    iload 1
    iload 1
    iload 1
    imul
    iastore
    iinc 1 1
    goto Lloop
Ldone:
    iload 0
    iconst 7
    iaload
    ireturn
}
entry T.main
`
	prog := bytecode.MustAssemble(src)
	m := New(prog, DefaultConfig())
	stats, err := m.Run([]ThreadSpec{{Method: prog.Entry}})
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.ThreadResults[0]; got != 49 {
		t.Fatalf("main returned %d, want 49", got)
	}
}

func TestSmokeExceptions(t *testing.T) {
	src := `
method T.main(0) returns int {
Ltry:
    iconst 5
    iconst 0
    idiv
    ireturn
Lcatch:
    iconst 100
    iadd
    ireturn
    handler Ltry Lcatch Lcatch any
}
entry T.main
`
	prog := bytecode.MustAssemble(src)
	m := New(prog, DefaultConfig())
	stats, err := m.Run([]ThreadSpec{{Method: prog.Entry}})
	if err != nil {
		t.Fatal(err)
	}
	// Handler receives the exception code (1) and adds 100.
	if got := stats.ThreadResults[0]; got != 101 {
		t.Fatalf("main returned %d, want 101", got)
	}
}
