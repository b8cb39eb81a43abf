package dfg

import (
	"fmt"
	"strings"

	"doacross/internal/tac"
)

// DOT renders the graph in Graphviz format, mirroring the paper's Fig. 3
// conventions: Wait_Signal nodes as down-triangles, Send_Signal nodes as
// up-triangles, synchronization arcs dashed, and components clustered and
// labeled with their Sig/Wat/Sigwat kind.
func (g *Graph) DOT() string {
	var sb strings.Builder
	sb.WriteString("digraph dfg {\n  rankdir=TB;\n  node [shape=circle fontsize=10];\n")
	for _, c := range g.Components() {
		fmt.Fprintf(&sb, "  subgraph cluster_%d {\n    label=\"%s\";\n", c.ID, c.Kind)
		for _, v := range c.Nodes {
			in := &g.Prog.Instrs[v]
			shape := "circle"
			switch in.Op {
			case tac.Wait:
				shape = "invtriangle"
			case tac.Send:
				shape = "triangle"
			}
			fmt.Fprintf(&sb, "    n%d [label=\"%d\" shape=%s tooltip=%q];\n",
				v, in.ID, shape, g.Prog.Format(in))
		}
		sb.WriteString("  }\n")
	}
	for _, a := range g.Arcs {
		style := ""
		switch a.Kind {
		case SrcToSend, WaitToSnk:
			style = " [style=dashed]"
		case Mem:
			style = " [style=dotted]"
		}
		fmt.Fprintf(&sb, "  n%d -> n%d%s;\n", a.From, a.To, style)
	}
	sb.WriteString("}\n")
	return sb.String()
}
