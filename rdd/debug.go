package rdd

import (
	"fmt"
	"strings"
)

// describeNode walks the lineage once per node.
func describeNode(n *node, seen map[int]bool, out *strings.Builder, depth int) {
	indent := strings.Repeat("  ", depth)
	cached := ""
	if n.cache != nil {
		cached = " [cached]"
	}
	fmt.Fprintf(out, "%s(%d) %d partitions%s\n", indent, n.id, n.parts, cached)
	if seen[n.id] {
		return
	}
	seen[n.id] = true
	for _, p := range n.parents {
		describeNode(p, seen, out, depth+1)
	}
	for _, d := range n.deps {
		fmt.Fprintf(out, "%s  <shuffle into %d partitions>\n", indent, d.reduceParts)
		describeNode(d.parent, seen, out, depth+1)
	}
}

// Describe renders the RDD's lineage as an indented tree — the debug
// string Spark calls toDebugString.
func (r *RDD[T]) Describe() string {
	var b strings.Builder
	describeNode(r.n, map[int]bool{}, &b, 0)
	return b.String()
}

// dotWalk emits one node and its edges.
func dotWalk(n *node, seen map[int]bool, out *strings.Builder) {
	if seen[n.id] {
		return
	}
	seen[n.id] = true
	shape := "box"
	if n.cache != nil {
		shape = "box3d"
	}
	fmt.Fprintf(out, "  n%d [label=\"#%d\\n%d parts\" shape=%s];\n", n.id, n.id, n.parts, shape)
	for _, p := range n.parents {
		dotWalk(p, seen, out)
		fmt.Fprintf(out, "  n%d -> n%d;\n", p.id, n.id)
	}
	for _, d := range n.deps {
		dotWalk(d.parent, seen, out)
		fmt.Fprintf(out, "  n%d -> n%d [style=dashed label=\"shuffle(%d)\"];\n",
			d.parent.id, n.id, d.reduceParts)
	}
}

// DotGraph renders the RDD's lineage as a Graphviz digraph: solid edges
// are narrow (pipelined) dependencies, dashed edges are shuffles, and
// cached RDDs draw as 3-D boxes.
func DotGraph[T any](r *RDD[T]) string {
	var b strings.Builder
	b.WriteString("digraph lineage {\n  rankdir=BT;\n")
	dotWalk(r.n, map[int]bool{}, &b)
	b.WriteString("}\n")
	return b.String()
}
