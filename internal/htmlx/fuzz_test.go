package htmlx

import (
	"fmt"
	"strings"
	"testing"
)

// FuzzParse verifies the parser never panics or hangs on arbitrary
// input, and that on ASCII input it builds exactly the tree of the
// reference parser below, with Attr and HasAttr answering for every
// attribute as the reference's per-element map does; the seed corpus
// covers every construct the synthetic web emits.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"<html><body><p>hi</p></body></html>",
		`<script src="http://x.com/a.js"></script>`,
		`<script>if (1<2) { document.browsingTopics(); }</script>`,
		`<iframe browsingtopics src=http://a.com/f></iframe>`,
		`<div id="privacy-banner"><button>Accept all</button></div>`,
		"<!-- comment --><!DOCTYPE html><img src=/a.png>",
		"<div", "</div>", "<div attr='unclosed", "<a b=c d>x",
		"<p>&amp;&lt;&gt;&quot;&#39;&nbsp;</p>",
		"<SCRIPT>a</Script><style>b</STYLE >c",
		"<script>x</scrip</script",
		"<a X=1 x=2 Y y=3>", "<a b='1' b c=2 B=>", "<i a=1><i a=2 a=3><i>",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 1<<16 {
			input = input[:1<<16]
		}
		doc := Parse(input)
		if doc == nil {
			t.Fatal("Parse returned nil")
		}
		// Derived operations must not panic either.
		doc.InnerText()
		doc.FindAll("script")
		doc.FindByID("x")
		if isASCII(input) {
			ref, refAttrs := referenceParse(input)
			if msg := diffTree(doc, ref, refAttrs); msg != "" {
				t.Fatalf("tree differs from the reference parser on %q: %s", input, msg)
			}
		}
	})
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

// diffTree compares a parsed tree with the reference's, node by node,
// and describes the first difference; "" means none. Element
// attributes are compared through Attr and HasAttr, under the
// reference name and its upper-case form, against the reference's map
// for that element, and Attrs must hold exactly the map's names.
func diffTree(got, want *Node, refAttrs map[*Node]map[string]string) string {
	if got.Tag != want.Tag || got.Text != want.Text || len(got.Children) != len(want.Children) {
		return fmt.Sprintf("node <%s> %q with %d children, reference <%s> %q with %d",
			got.Tag, got.Text, len(got.Children), want.Tag, want.Text, len(want.Children))
	}
	attrs := refAttrs[want]
	if len(got.Attrs) != len(attrs) {
		return fmt.Sprintf("<%s> attributes %v, reference %v", got.Tag, got.Attrs, attrs)
	}
	for name, val := range attrs {
		for _, q := range []string{name, strings.ToUpper(name)} {
			if v, ok := got.Attr(q); !ok || v != val || !got.HasAttr(q) {
				return fmt.Sprintf("<%s> Attr(%q) = %q, %v; reference %q", got.Tag, q, v, ok, val)
			}
		}
	}
	for i := range got.Children {
		if msg := diffTree(got.Children[i], want.Children[i], refAttrs); msg != "" {
			return msg
		}
	}
	return ""
}

// referenceParse is the parser as it was before two changes, so that
// both stay checked against their originals:
//   - raw-text scanning became an ASCII case-insensitive byte scan; the
//     reference finds a script or style body's end tag by lowercasing
//     the whole rest of the document. That agrees with indexEndTag byte
//     for byte on ASCII input (and only there: Unicode lowercasing can
//     change byte lengths);
//   - attributes moved from one map per element to a slice carved from
//     a per-parse arena; the reference keeps the map, returned beside
//     the tree keyed by element, and leaves Node.Attrs nil.
//
// Tokenising (text, comments, tags, attribute name and value syntax)
// is shared with the real parser.
func referenceParse(html string) (*Node, map[*Node]map[string]string) {
	p := &refParser{parser: parser{src: html}, attrs: map[*Node]map[string]string{}}
	root := &Node{Tag: "#document"}
	p.parseChildren(root, "")
	return root, p.attrs
}

type refParser struct {
	parser
	attrs map[*Node]map[string]string
}

// readStartTag is the map-based start-tag reader: a later duplicate
// overwrites an earlier one, names are lowercased.
func (p *refParser) readStartTag() (node *Node, selfClosing bool) {
	p.pos++ // '<'
	start := p.pos
	for !p.eof() && isNameChar(p.src[p.pos]) {
		p.pos++
	}
	name := strings.ToLower(p.src[start:p.pos])
	if name == "" {
		return nil, false
	}
	node = &Node{Tag: name}
	attrs := map[string]string{}
	p.attrs[node] = attrs
	for {
		p.skipSpace()
		if p.eof() {
			return node, false
		}
		switch p.src[p.pos] {
		case '>':
			p.pos++
			return node, false
		case '/':
			p.pos++
			if !p.eof() && p.src[p.pos] == '>' {
				p.pos++
				return node, true
			}
		default:
			aname, aval := p.readAttr()
			if aname != "" {
				attrs[strings.ToLower(aname)] = aval
			}
		}
	}
}

func (p *refParser) parseChildren(parent *Node, enclosing string) {
	for !p.eof() {
		if p.src[p.pos] != '<' {
			text := p.readText()
			if strings.TrimSpace(text) != "" {
				parent.Children = append(parent.Children, &Node{Text: text})
			}
			continue
		}
		if strings.HasPrefix(p.src[p.pos:], "<!--") {
			p.skipComment()
			continue
		}
		if strings.HasPrefix(p.src[p.pos:], "<!") {
			p.skipUntil('>')
			continue
		}
		if strings.HasPrefix(p.src[p.pos:], "</") {
			p.readEndTag()
			if enclosing == "" {
				continue
			}
			return
		}
		node, selfClosing := p.readStartTag()
		if node == nil {
			continue
		}
		parent.Children = append(parent.Children, node)
		if selfClosing || voidElements[node.Tag] {
			continue
		}
		if rawTextElements[node.Tag] {
			node.Text = p.readRawText(node.Tag)
			continue
		}
		p.parseChildren(node, node.Tag)
	}
}

func (p *refParser) readRawText(tag string) string {
	rest := p.src[p.pos:]
	idx := strings.Index(strings.ToLower(rest), "</"+tag)
	if idx < 0 {
		p.pos = len(p.src)
		return rest
	}
	p.pos += idx
	p.readEndTag()
	return rest[:idx]
}
