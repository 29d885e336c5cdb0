// Package htmlx is a small, dependency-free HTML parser sufficient for
// the emulated browser and the Priv-Accept banner detector: it builds a
// DOM tree exposing tags, attributes and text, and understands the
// constructs the synthetic web uses (scripts with raw bodies, iframes,
// void elements, comments, quoted attributes, boolean attributes such as
// the Topics API's <iframe browsingtopics>).
//
// It is intentionally forgiving, like a browser: unknown constructs are
// skipped, unclosed tags are closed implicitly at EOF, and mismatched
// end tags pop to the nearest matching ancestor.
package htmlx

import (
	"strings"
)

// Node is one DOM node: an element, or a text node (Tag == "" and Text
// set).
type Node struct {
	// Tag is the lowercase element name; empty for text nodes.
	Tag string
	// Attrs holds the element attributes in source order, once per
	// lowercase name: a repeated name keeps its first position and its
	// last value. Boolean attributes have the value "". Read them
	// through Attr and HasAttr.
	Attrs []Attribute
	// Children are the child nodes in document order.
	Children []*Node
	// Text is the content of a text node, or the raw body for script
	// and style elements.
	Text string
}

// Attribute is one element attribute.
type Attribute struct {
	// Name is the lowercase attribute name.
	Name string
	// Value is the entity-decoded value; "" for a boolean attribute.
	Value string
}

// Attr returns the value of an attribute and whether it is present.
func (n *Node) Attr(name string) (string, bool) {
	if i := n.attrIndex(name); i >= 0 {
		return n.Attrs[i].Value, true
	}
	return "", false
}

// HasAttr reports whether the attribute is present (including boolean
// attributes like "browsingtopics").
func (n *Node) HasAttr(name string) bool { return n.attrIndex(name) >= 0 }

func (n *Node) attrIndex(name string) int {
	if len(n.Attrs) == 0 {
		return -1
	}
	name = strings.ToLower(name)
	for i := range n.Attrs {
		if n.Attrs[i].Name == name {
			return i
		}
	}
	return -1
}

// voidElements never have children.
var voidElements = map[string]bool{
	"area": true, "base": true, "br": true, "col": true, "embed": true,
	"hr": true, "img": true, "input": true, "link": true, "meta": true,
	"source": true, "track": true, "wbr": true,
}

// rawTextElements swallow everything until their end tag.
var rawTextElements = map[string]bool{"script": true, "style": true}

// Parse builds a DOM tree from HTML. The returned node is a synthetic
// root with tag "#document".
func Parse(html string) *Node {
	p := &parser{src: html}
	root := &Node{Tag: "#document"}
	p.parseChildren(root, "")
	return root
}

type parser struct {
	src string
	pos int
	// attrs is the parse's attribute arena: every element's Attrs is
	// carved from it, so a document costs one or two allocations instead
	// of one per element. tagStart is where the element being read
	// begins its run.
	attrs    []Attribute
	tagStart int
}

// arenaSize is the attribute arena's first capacity, enough for a
// typical synthetic landing page.
const arenaSize = 64

func (p *parser) eof() bool { return p.pos >= len(p.src) }

// parseChildren parses nodes into parent until the matching end tag of
// enclosing (or EOF) is seen.
func (p *parser) parseChildren(parent *Node, enclosing string) {
	for !p.eof() {
		if p.src[p.pos] != '<' {
			text := p.readText()
			if strings.TrimSpace(text) != "" {
				parent.Children = append(parent.Children, &Node{Text: text})
			}
			continue
		}
		// Comment?
		if strings.HasPrefix(p.src[p.pos:], "<!--") {
			p.skipComment()
			continue
		}
		// Doctype or other declaration?
		if strings.HasPrefix(p.src[p.pos:], "<!") {
			p.skipUntil('>')
			continue
		}
		// End tag?
		if strings.HasPrefix(p.src[p.pos:], "</") {
			name := p.readEndTag()
			if enclosing == "" {
				// Stray end tag at the top level: browsers drop it and
				// keep parsing.
				continue
			}
			// Matching end tag closes this element; a mismatched one
			// implicitly closes it too (forgiving pop-one behaviour).
			_ = name
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

func (p *parser) readText() string {
	start := p.pos
	for !p.eof() && p.src[p.pos] != '<' {
		p.pos++
	}
	return decodeEntities(p.src[start:p.pos])
}

func (p *parser) skipComment() {
	end := strings.Index(p.src[p.pos+4:], "-->")
	if end < 0 {
		p.pos = len(p.src)
		return
	}
	p.pos += 4 + end + 3
}

func (p *parser) skipUntil(c byte) {
	for !p.eof() && p.src[p.pos] != c {
		p.pos++
	}
	if !p.eof() {
		p.pos++
	}
}

func (p *parser) readEndTag() string {
	p.pos += 2 // "</"
	start := p.pos
	for !p.eof() && p.src[p.pos] != '>' {
		p.pos++
	}
	name := strings.ToLower(strings.TrimSpace(p.src[start:p.pos]))
	if !p.eof() {
		p.pos++
	}
	return name
}

// readStartTag parses "<tag attr=... >"; returns nil for malformed tags.
func (p *parser) readStartTag() (node *Node, selfClosing bool) {
	p.pos++ // '<'
	start := p.pos
	for !p.eof() && isNameChar(p.src[p.pos]) {
		p.pos++
	}
	name := strings.ToLower(p.src[start:p.pos])
	if name == "" {
		// "<" followed by junk: treat as text, skip the bracket.
		return nil, false
	}
	node = &Node{Tag: name}
	defer p.setAttrs(node)
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
				p.addAttr(strings.ToLower(aname), aval)
			}
		}
	}
}

// addAttr appends an attribute of the element being read to the arena;
// a repeated name overwrites the earlier value in place. The element's
// attributes so far are the arena's [tagStart:] run. When append moves
// the arena to a bigger array, elements already read keep their slices
// of the old one.
func (p *parser) addAttr(name, val string) {
	for i := p.tagStart; i < len(p.attrs); i++ {
		if p.attrs[i].Name == name {
			p.attrs[i].Value = val
			return
		}
	}
	if p.attrs == nil {
		p.attrs = make([]Attribute, 0, arenaSize)
	}
	p.attrs = append(p.attrs, Attribute{Name: name, Value: val})
}

// setAttrs hands the element being read its run of the arena, capped so
// that nothing appended later can reach into it, and opens the next run.
func (p *parser) setAttrs(node *Node) {
	if len(p.attrs) > p.tagStart {
		node.Attrs = p.attrs[p.tagStart:len(p.attrs):len(p.attrs)]
	}
	p.tagStart = len(p.attrs)
}

func (p *parser) readAttr() (string, string) {
	start := p.pos
	for !p.eof() && isAttrNameChar(p.src[p.pos]) {
		p.pos++
	}
	name := p.src[start:p.pos]
	if name == "" {
		p.pos++ // skip junk byte to guarantee progress
		return "", ""
	}
	p.skipSpace()
	if p.eof() || p.src[p.pos] != '=' {
		return name, "" // boolean attribute
	}
	p.pos++ // '='
	p.skipSpace()
	if p.eof() {
		return name, ""
	}
	switch q := p.src[p.pos]; q {
	case '"', '\'':
		p.pos++
		vstart := p.pos
		for !p.eof() && p.src[p.pos] != q {
			p.pos++
		}
		val := p.src[vstart:p.pos]
		if !p.eof() {
			p.pos++
		}
		return name, decodeEntities(val)
	default:
		vstart := p.pos
		for !p.eof() && !isSpace(p.src[p.pos]) && p.src[p.pos] != '>' {
			p.pos++
		}
		return name, decodeEntities(p.src[vstart:p.pos])
	}
}

// readRawText consumes until </tag>.
func (p *parser) readRawText(tag string) string {
	rest := p.src[p.pos:]
	idx := indexEndTag(rest, tag)
	if idx < 0 {
		p.pos = len(p.src)
		return rest
	}
	body := rest[:idx]
	p.pos += idx
	p.readEndTag()
	return body
}

// indexEndTag returns the offset of the first "</tag" in s, matching
// the lowercase ASCII tag name case-insensitively on ASCII letters only,
// or -1. It neither allocates nor rewrites s, so the offset is always a
// byte position of s itself.
func indexEndTag(s, tag string) int {
	for i := 0; ; i++ {
		j := strings.IndexByte(s[i:], '<')
		if j < 0 {
			return -1
		}
		i += j
		if rest := s[i+1:]; len(rest) > len(tag) && rest[0] == '/' && asciiEqualLower(rest[1:1+len(tag)], tag) {
			return i
		}
	}
}

// asciiEqualLower reports whether s equals the lowercase ASCII string
// lower once the ASCII capitals of s are lowered.
func asciiEqualLower(s, lower string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

func (p *parser) skipSpace() {
	for !p.eof() && isSpace(p.src[p.pos]) {
		p.pos++
	}
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

func isNameChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-' || c == '_'
}

func isAttrNameChar(c byte) bool {
	return isNameChar(c) || c == ':'
}

var entityReplacer = strings.NewReplacer(
	"&amp;", "&", "&lt;", "<", "&gt;", ">", "&quot;", `"`, "&#39;", "'", "&nbsp;", " ",
)

func decodeEntities(s string) string {
	if !strings.Contains(s, "&") {
		return s
	}
	return entityReplacer.Replace(s)
}
