package bytecode

import (
	"fmt"
	"strings"
)

// Disassemble renders a whole program in the assembler's input syntax, so
// that Assemble(Disassemble(p)) reproduces an equivalent program. Labels are
// synthesised as L<idx> at every branch/handler target.
func Disassemble(p *Program) string {
	var b strings.Builder
	for i, tbl := range p.DispatchTables {
		fmt.Fprintf(&b, "table t%d =", i)
		for _, id := range tbl {
			fmt.Fprintf(&b, " %s", p.Methods[id].FullName())
		}
		b.WriteByte('\n')
	}
	if len(p.DispatchTables) > 0 {
		b.WriteByte('\n')
	}
	for _, m := range p.Methods {
		disassembleMethod(&b, p, m)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "entry %s\n", p.Methods[p.Entry].FullName())
	return b.String()
}

func disassembleMethod(b *strings.Builder, p *Program, m *Method) {
	labels := labelTargets(m)
	fmt.Fprintf(b, "method %s(%d)", m.FullName(), m.NArgs)
	if m.ReturnsValue {
		b.WriteString(" returns int")
	}
	b.WriteString(" {\n")
	lbl := func(t int32) string { return fmt.Sprintf("L%d", t) }
	for pc, ins := range m.Code {
		if labels[int32(pc)] {
			fmt.Fprintf(b, "%s:\n", lbl(int32(pc)))
		}
		b.WriteString("    ")
		switch ins.Op {
		case GOTO:
			fmt.Fprintf(b, "goto %s", lbl(ins.A))
		case TABLESWITCH:
			fmt.Fprintf(b, "tableswitch %d default=%s [", ins.A, lbl(ins.B))
			for i, t := range ins.Targets {
				if i > 0 {
					b.WriteByte(' ')
				}
				b.WriteString(lbl(t))
			}
			b.WriteByte(']')
		case INVOKESTATIC:
			fmt.Fprintf(b, "invokestatic %s", p.Methods[ins.A].FullName())
		case INVOKEDYN:
			fmt.Fprintf(b, "invokedyn t%d", ins.A)
		default:
			if ins.Op.IsCondBranch() {
				fmt.Fprintf(b, "%s %s", ins.Op, lbl(ins.A))
			} else {
				b.WriteString(ins.String())
			}
		}
		b.WriteByte('\n')
	}
	if labels[int32(len(m.Code))] {
		// A handler range may end exactly at the end of the code.
		fmt.Fprintf(b, "%s:\n", lbl(int32(len(m.Code))))
	}
	for _, h := range m.Handlers {
		code := "any"
		if h.Code >= 0 {
			code = fmt.Sprint(h.Code)
		}
		fmt.Fprintf(b, "    handler %s %s %s %s\n", lbl(h.From), lbl(h.To), lbl(h.Target), code)
	}
	b.WriteString("}\n")
}

// labelTargets returns the set of instruction indices needing labels.
func labelTargets(m *Method) map[int32]bool {
	t := make(map[int32]bool)
	for i := range m.Code {
		for _, tgt := range m.Code[i].BranchTargets() {
			t[tgt] = true
		}
	}
	for _, h := range m.Handlers {
		t[h.From] = true
		t[h.To] = true
		t[h.Target] = true
	}
	return t
}
