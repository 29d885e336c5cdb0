package htmlx

import "strings"

// Walk visits every node in document order; fn returning false prunes
// the subtree.
func (n *Node) Walk(fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// InnerText concatenates all descendant text, normalising whitespace
// runs to single spaces.
func (n *Node) InnerText() string {
	var b strings.Builder
	n.Walk(func(node *Node) bool {
		if node.Tag == "" && node.Text != "" {
			b.WriteString(node.Text)
			b.WriteByte(' ')
		}
		// Script/style raw bodies are not human-visible text.
		return !rawTextElements[node.Tag]
	})
	return strings.Join(strings.Fields(b.String()), " ")
}
