package htmlx

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzParse verifies the parser never panics or hangs on arbitrary
// input, and that on ASCII input it builds exactly the tree of the
// reference parser below; the seed corpus covers every construct the
// synthetic web emits.
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
			if ref := referenceParse(input); !reflect.DeepEqual(doc, ref) {
				t.Fatalf("tree differs from the reference parser on %q", input)
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

// referenceParse is the parser as it was before raw-text scanning
// became an ASCII case-insensitive byte scan: it found a script or
// style body's end tag by lowercasing the whole rest of the document.
// That agrees with indexEndTag byte for byte on ASCII input (and only
// there: Unicode lowercasing can change byte lengths). Everything but
// raw-text scanning is shared with the real parser.
func referenceParse(html string) *Node {
	p := &refParser{parser{src: html}}
	root := &Node{Tag: "#document"}
	p.parseChildren(root, "")
	return root
}

type refParser struct{ parser }

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
