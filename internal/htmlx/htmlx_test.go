package htmlx

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseBasicTree(t *testing.T) {
	doc := Parse(`<!DOCTYPE html>
<html>
<head><title>Hello</title></head>
<body>
  <div id="main" class="wrap">
    <p>Some <b>bold</b> text</p>
  </div>
</body>
</html>`)
	html := doc.FindAll("html")
	if len(html) != 1 {
		t.Fatalf("html elements = %d", len(html))
	}
	if got := doc.FindAll("p"); len(got) != 1 {
		t.Fatalf("p elements = %d", len(got))
	}
	div := doc.FindByID("main")
	if div == nil || div.Tag != "div" {
		t.Fatal("FindByID failed")
	}
	if v, _ := div.Attr("class"); v != "wrap" {
		t.Errorf("class = %q", v)
	}
	if got := div.InnerText(); got != "Some bold text" {
		t.Errorf("InnerText = %q", got)
	}
}

func TestScriptRawBody(t *testing.T) {
	doc := Parse(`<script src="http://x.com/a.js"></script>
<script>
const topics = await document.browsingTopics();
if (1 < 2) { x = "<div>"; }
</script>`)
	scripts := doc.FindAll("script")
	if len(scripts) != 2 {
		t.Fatalf("scripts = %d", len(scripts))
	}
	if src, ok := scripts[0].Attr("src"); !ok || src != "http://x.com/a.js" {
		t.Errorf("src = %q, %v", src, ok)
	}
	if !strings.Contains(scripts[1].Text, "browsingTopics()") {
		t.Errorf("script body = %q", scripts[1].Text)
	}
	if !strings.Contains(scripts[1].Text, `x = "<div>";`) {
		t.Error("raw text parsing broke on embedded markup")
	}
	// Script bodies must not leak into InnerText.
	if strings.Contains(doc.InnerText(), "browsingTopics") {
		t.Error("script body leaked into InnerText")
	}
}

func TestBooleanAndUnquotedAttrs(t *testing.T) {
	doc := Parse(`<iframe browsingtopics src=http://adv.com/frame.html width="1"></iframe>`)
	frames := doc.FindAll("iframe")
	if len(frames) != 1 {
		t.Fatal("iframe missing")
	}
	f := frames[0]
	if !f.HasAttr("browsingtopics") {
		t.Error("boolean attribute lost")
	}
	if v, _ := f.Attr("SRC"); v != "http://adv.com/frame.html" {
		t.Errorf("src = %q", v)
	}
	if v, _ := f.Attr("width"); v != "1" {
		t.Errorf("width = %q", v)
	}
}

func TestVoidAndSelfClosing(t *testing.T) {
	doc := Parse(`<div><img src="/a.png"><br><link rel=stylesheet href="/s.css"><span/>text</div>`)
	if len(doc.FindAll("img")) != 1 || len(doc.FindAll("link")) != 1 {
		t.Error("void elements mishandled")
	}
	div := doc.FindAll("div")[0]
	// img, br, link, span, text are all children of div (not nested).
	if len(div.Children) != 5 {
		t.Errorf("div has %d children: %+v", len(div.Children), div.Children)
	}
}

func TestCommentsSkipped(t *testing.T) {
	doc := Parse(`<div><!-- <script src="x"></script> -->visible</div>`)
	if len(doc.FindAll("script")) != 0 {
		t.Error("commented script parsed")
	}
	if got := doc.InnerText(); got != "visible" {
		t.Errorf("InnerText = %q", got)
	}
}

func TestEntities(t *testing.T) {
	doc := Parse(`<p title="a&amp;b">x &lt;tag&gt; &amp; more</p>`)
	p := doc.FindAll("p")[0]
	if v, _ := p.Attr("title"); v != "a&b" {
		t.Errorf("title = %q", v)
	}
	if got := p.InnerText(); got != "x <tag> & more" {
		t.Errorf("InnerText = %q", got)
	}
}

func TestMalformedInputsDoNotHangOrPanic(t *testing.T) {
	inputs := []string{
		"", "<", "<>", "< div>", "<div", "<div attr", `<div attr="unterminated`,
		"</closewithoutopen>", "<div><span></div>", "<!--unclosed",
		"<!doctype", "<script>never closed", strings.Repeat("<div>", 500),
		"<div ===>ok</div>", "<a b=c d>x</a>",
	}
	for _, in := range inputs {
		doc := Parse(in) // must terminate without panicking
		if doc == nil {
			t.Errorf("Parse(%q) = nil", in)
		}
	}
}

func TestNestedIframes(t *testing.T) {
	doc := Parse(`<body>
	  <iframe src="http://a.com/f1"><p>fallback</p></iframe>
	  <div><iframe src="http://b.com/f2"></iframe></div>
	</body>`)
	frames := doc.FindAll("iframe")
	if len(frames) != 2 {
		t.Fatalf("frames = %d", len(frames))
	}
	if s, _ := frames[1].Attr("src"); s != "http://b.com/f2" {
		t.Errorf("frame 2 src = %q", s)
	}
}

// Property: Parse never panics and always terminates on arbitrary input.
func TestParseRobustness(t *testing.T) {
	f := func(s string) bool {
		if len(s) > 4096 {
			s = s[:4096]
		}
		doc := Parse(s)
		return doc != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestWalkPrune(t *testing.T) {
	doc := Parse(`<div><section><p>deep</p></section><p>top</p></div>`)
	var tags []string
	doc.Walk(func(n *Node) bool {
		if n.Tag == "section" {
			return false // prune
		}
		if n.Tag != "" {
			tags = append(tags, n.Tag)
		}
		return true
	})
	for _, tag := range tags {
		if tag == "p" {
			// one p is inside section (pruned), one at top level
			return
		}
	}
	t.Errorf("walk with prune visited %v, expected the top-level p", tags)
}

func TestStrayTopLevelEndTagDoesNotTruncate(t *testing.T) {
	doc := Parse(`</div><p>first</p></span><p>second</p>`)
	if got := len(doc.FindAll("p")); got != 2 {
		t.Errorf("stray end tags swallowed content: %d paragraphs", got)
	}
}

func TestRawTextEndTag(t *testing.T) {
	cases := []struct {
		name, html, body, after string
	}{
		{"lowercase", "<script>a()</script><p>x</p>", "a()", "x"},
		{"uppercase end tag", "<script>a()</SCRIPT><p>x</p>", "a()", "x"},
		{"mixed case style", "<style>b{}</StYlE ><p>x</p>", "b{}", "x"},
		{"lookalike tags skipped", "<script>if(a<b)</scrip</scriptx</script><p>x</p>", "if(a<b)</scrip", "x"},
		{"unterminated", "<script>a()</scr", "a()</scr", ""},
		// "İ" is 2 bytes but lowercases to 3: an offset taken from a
		// lowercased copy would land one byte past the end tag.
		{"non-ASCII before end tag", "<script>var s='İİ'</script><p>x</p>", "var s='İİ'", "x"},
		{"non-ASCII in a lookalike tag", "<style>a</ſtyle></style><p>x</p>", "a</ſtyle>", "x"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			doc := Parse(tc.html)
			tag := "script"
			if strings.HasPrefix(tc.html, "<style") {
				tag = "style"
			}
			raw := doc.FindAll(tag)
			if len(raw) != 1 || raw[0].Text != tc.body {
				t.Fatalf("%s body = %q, want %q", tag, firstText(raw), tc.body)
			}
			if got := doc.InnerText(); got != tc.after {
				t.Errorf("text after the element = %q, want %q", got, tc.after)
			}
		})
	}
}

func firstText(nodes []*Node) string {
	if len(nodes) == 0 {
		return "<none>"
	}
	return nodes[0].Text
}

func TestIndexEndTagAllocationFree(t *testing.T) {
	doc := strings.Repeat("<div>x</div>", 64) + "</SCRIPT>"
	if allocs := testing.AllocsPerRun(100, func() { indexEndTag(doc, "script") }); allocs != 0 {
		t.Errorf("indexEndTag allocs/op = %g, want 0", allocs)
	}
}

// TestAttributeSemantics pins what Attr and HasAttr answer for the
// attribute shapes a page can carry: names match case-insensitively,
// the last of a repeated name wins, a boolean attribute reads as "",
// and an unquoted value runs to the next space or '>'.
func TestAttributeSemantics(t *testing.T) {
	type want struct {
		name, value string
		present     bool
	}
	cases := []struct {
		html  string
		attrs []want
		count int // distinct names on the element
	}{
		{`<a X=1 x=2>`, []want{{"x", "2", true}, {"X", "2", true}}, 1},
		{`<a x=1 x=2 x=3>`, []want{{"x", "3", true}}, 1},
		{`<a x="1" y x='' >`, []want{{"x", "", true}, {"y", "", true}}, 2},
		{`<a HREF="/A" Data-Id=Z>`, []want{{"href", "/A", true}, {"data-id", "Z", true}, {"DATA-ID", "Z", true}}, 2},
		{`<iframe browsingtopics src=//a.com/f>`, []want{{"browsingtopics", "", true}, {"src", "//a.com/f", true}}, 2},
		{`<img src=/a.png/>`, []want{{"src", "/a.png/", true}}, 1},
		{`<a b = "c d" e=f&amp;g>`, []want{{"b", "c d", true}, {"e", "f&g", true}}, 2},
		{`<p>`, []want{{"id", "", false}, {"", "", false}}, 0},
		{`<a xlink:href=u x:y>`, []want{{"xlink:href", "u", true}, {"x:y", "", true}}, 2},
	}
	for _, tc := range cases {
		n := Parse(tc.html).Children[0]
		for _, w := range tc.attrs {
			v, ok := n.Attr(w.name)
			if v != w.value || ok != w.present {
				t.Errorf("%s: Attr(%q) = %q, %v; want %q, %v", tc.html, w.name, v, ok, w.value, w.present)
			}
			if n.HasAttr(w.name) != w.present {
				t.Errorf("%s: HasAttr(%q) = %v, want %v", tc.html, w.name, !w.present, w.present)
			}
		}
		if len(n.Attrs) != tc.count {
			t.Errorf("%s: %d attributes %v, want %d", tc.html, len(n.Attrs), n.Attrs, tc.count)
		}
	}
}

// TestAttributeArenaIsolation parses a page with more attributes than
// the arena first holds: every element must keep its own values, and
// appending to one element's Attrs must not write into its neighbour's.
func TestAttributeArenaIsolation(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 3*arenaSize; i++ {
		fmt.Fprintf(&b, `<i a=%d b=%d c>`, i, i+1)
	}
	els := Parse(b.String()).FindAll("i")
	if len(els) != 3*arenaSize {
		t.Fatalf("%d elements", len(els))
	}
	for i, n := range els {
		if a, _ := n.Attr("a"); a != strconv.Itoa(i) {
			t.Fatalf("element %d: a = %q", i, a)
		}
		if bv, _ := n.Attr("b"); bv != strconv.Itoa(i+1) || !n.HasAttr("c") {
			t.Fatalf("element %d: b = %q, c present %v", i, bv, n.HasAttr("c"))
		}
	}
	first := els[0]
	first.Attrs = append(first.Attrs, Attribute{Name: "z", Value: "1"})
	if els[1].Attrs[0].Name != "a" || els[1].HasAttr("z") {
		t.Errorf("append to one element's attributes reached the next: %v", els[1].Attrs)
	}
}
