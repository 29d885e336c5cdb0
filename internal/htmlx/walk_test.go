package htmlx

import "strings"

// FindAll and FindByID are the tests' DOM queries; the browser walks
// the tree itself, so they live beside the tests that use them.

// FindAll returns every element with the given tag, in document order.
func (n *Node) FindAll(tag string) []*Node {
	tag = strings.ToLower(tag)
	var out []*Node
	n.Walk(func(node *Node) bool {
		if node.Tag == tag {
			out = append(out, node)
		}
		return true
	})
	return out
}

// FindByID returns the first element with the given id attribute.
func (n *Node) FindByID(id string) *Node {
	var found *Node
	n.Walk(func(node *Node) bool {
		if found != nil {
			return false
		}
		if v, ok := node.Attr("id"); ok && v == id {
			found = node
			return false
		}
		return true
	})
	return found
}
