package dataset

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"sync"
	"time"
)

// DecodeVisit decodes one JSON visit record into *v. It is
// json.Unmarshal into a zero Visit, value and error alike, without the
// reflection: a single pass decodes the records the writers emit —
// compact objects whose keys are the exact struct-tag names, each at
// most once, with plain strings, canonical integers, true/false, RFC
// 3339 timestamps and arrays of objects. A string token carrying an
// escape, a control byte or a non-ASCII byte is decoded by
// json.Unmarshal on that token alone. Any other input — whitespace,
// null, an unknown, case-folded or duplicate key, a non-canonical
// number, trailing bytes, any error — zeroes *v again and returns
// json.Unmarshal(b, v), so the fallback is also the reference the fast
// path is fuzzed against (FuzzDecodeVisit). Safe for concurrent use.
func DecodeVisit(b []byte, v *Visit) error {
	*v = Visit{}
	d := decoderPool.Get().(*visitDecoder)
	d.b, d.i = b, 0
	ok := d.visit(v) && d.i == len(b)
	d.b = nil
	decoderPool.Put(d)
	if ok {
		return nil
	}
	*v = Visit{}
	return json.Unmarshal(b, v)
}

// visitDecoder is the cursor over one record plus the scratch slices
// its arrays decode into before being copied out at exact size.
type visitDecoder struct {
	b     []byte
	i     int
	res   []Resource
	calls []TopicsCall
}

var decoderPool = sync.Pool{New: func() any { return new(visitDecoder) }}

// bit maps a field's decode outcome to its duplicate-detection bit; 0
// means the field did not decode.
func bit(n uint, ok bool) uint32 {
	if ok {
		return 1 << n
	}
	return 0
}

func (d *visitDecoder) visit(v *Visit) bool {
	return d.object(func(key []byte) uint32 {
		switch string(key) {
		case "site":
			return bit(0, d.str(&v.Site))
		case "rank":
			return bit(1, d.int(&v.Rank))
		case "phase":
			return bit(2, d.str((*string)(&v.Phase), string(BeforeAccept), string(AfterAccept)))
		case "success":
			return bit(3, d.bool(&v.Success))
		case "error":
			return bit(4, d.str(&v.Error))
		case "errorClass":
			return bit(5, d.str(&v.ErrorClass))
		case "partial":
			return bit(6, d.bool(&v.Partial))
		case "retries":
			return bit(7, d.int(&v.Retries))
		case "bannerDetected":
			return bit(8, d.bool(&v.BannerDetected))
		case "bannerLanguage":
			return bit(9, d.str(&v.BannerLanguage))
		case "accepted":
			return bit(10, d.bool(&v.Accepted))
		case "cmp":
			return bit(11, d.str(&v.CMP))
		case "resources":
			return bit(12, decodeArray(d, &d.res, &v.Resources, d.resource))
		case "calls":
			return bit(13, decodeArray(d, &d.calls, &v.Calls, func(c *TopicsCall) bool { return d.call(c, v.Site) }))
		case "fetchedAt":
			return bit(14, d.time(&v.FetchedAt))
		}
		return 0
	})
}

func (d *visitDecoder) resource(r *Resource) bool {
	return d.object(func(key []byte) uint32 {
		switch string(key) {
		case "url":
			return bit(0, d.str(&r.URL))
		case "host":
			return bit(1, d.str(&r.Host, afterScheme(r.URL)))
		case "thirdParty":
			return bit(2, d.bool(&r.ThirdParty))
		case "failed":
			return bit(3, d.bool(&r.Failed))
		case "error":
			return bit(4, d.str(&r.Error))
		}
		return 0
	})
}

func (d *visitDecoder) call(c *TopicsCall, site string) bool {
	return d.object(func(key []byte) uint32 {
		switch string(key) {
		case "caller":
			return bit(0, d.str(&c.Caller))
		case "site":
			return bit(1, d.str(&c.Site, site))
		case "type":
			return bit(2, d.str((*string)(&c.Type), string(CallJavaScript), string(CallFetch), string(CallIframe)))
		case "contextOrigin":
			return bit(3, d.str(&c.ContextOrigin, site, c.Caller))
		case "timestamp":
			return bit(4, d.time(&c.Timestamp))
		case "gateAllowed":
			return bit(5, d.bool(&c.GateAllowed))
		case "gateReason":
			return bit(6, d.str(&c.GateReason))
		case "topicsReturned":
			return bit(7, d.int(&c.TopicsReturned))
		}
		return 0
	})
}

// object decodes a compact JSON object, handing each plain key to field
// with the cursor on its value; field returns the key's bit, or 0 for
// an unknown key or a value it could not decode.
func (d *visitDecoder) object(field func(key []byte) uint32) bool {
	if !d.consume('{') {
		return false
	}
	if d.consume('}') {
		return true
	}
	var seen uint32
	for {
		key, plain, ok := d.stringToken()
		if !ok || !plain || !d.consume(':') {
			return false
		}
		b := field(key)
		if b == 0 || seen&b != 0 {
			return false
		}
		seen |= b
		if d.consume('}') {
			return true
		}
		if !d.consume(',') {
			return false
		}
	}
}

// decodeArray decodes a compact JSON array of objects into scratch and
// copies it to *dst at exact size; `[]` yields an empty, non-nil slice,
// as encoding/json does.
func decodeArray[T any](d *visitDecoder, scratch *[]T, dst *[]T, elem func(*T) bool) bool {
	if !d.consume('[') {
		return false
	}
	s := (*scratch)[:0]
	ok := d.consume(']')
	for !ok {
		var zero T
		s = append(s, zero)
		if !elem(&s[len(s)-1]) {
			break
		}
		if d.consume(']') {
			ok = true
		} else if !d.consume(',') {
			break
		}
	}
	if ok {
		*dst = make([]T, len(s))
		copy(*dst, s)
	}
	clear(s)
	*scratch = s[:0]
	return ok
}

func (d *visitDecoder) consume(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// plainByte marks the bytes that stand for themselves inside a JSON
// string: printable ASCII other than the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// stringToken advances past one JSON string token and returns its raw
// contents; plain reports that they hold no escape, control byte or
// non-ASCII byte, i.e. that the raw bytes are the decoded value.
func (d *visitDecoder) stringToken() (raw []byte, plain, ok bool) {
	if !d.consume('"') {
		return nil, false, false
	}
	rest := d.b[d.i:]
	plain = true
	for j := 0; j < len(rest); j++ {
		c := rest[j]
		if plainByte[c] {
			continue
		}
		switch c {
		case '"':
			d.i += j + 1
			return rest[:j], plain, true
		case '\\':
			j++ // the escaped byte cannot close the string
		}
		plain = false
	}
	return nil, false, false
}

// str decodes a JSON string token into *dst. A plain one that repeats
// the start of one of prev — an enum constant, the visit's site, the
// caller, a URL past its scheme — shares those bytes instead of
// allocating a copy; any other token is decoded by json.Unmarshal on
// the token alone.
func (d *visitDecoder) str(dst *string, prev ...string) bool {
	start := d.i
	raw, plain, ok := d.stringToken()
	switch {
	case !ok:
		return false
	case !plain:
		return json.Unmarshal(d.b[start:d.i], dst) == nil
	}
	for _, p := range prev {
		if len(p) >= len(raw) && p[:len(raw)] == string(raw) {
			*dst = p[:len(raw)]
			return true
		}
	}
	*dst = string(raw)
	return true
}

// afterScheme returns url past its "scheme://", where the host starts.
func afterScheme(url string) string {
	if i := strings.Index(url, "://"); i >= 0 {
		return url[i+len("://"):]
	}
	return ""
}

// maxIntDigits is the longest canonical integer int decodes itself: no
// 18-digit (or, with 32-bit ints, 9-digit) number overflows an int, so
// only longer ones need the fallback's range check.
const maxIntDigits = 18 * strconv.IntSize / 64

// int decodes a canonical JSON integer of at most maxIntDigits digits.
func (d *visitDecoder) int(dst *int) bool {
	j := d.i
	neg := j < len(d.b) && d.b[j] == '-'
	if neg {
		j++
	}
	start, n := j, 0
	for ; j < len(d.b) && d.b[j] >= '0' && d.b[j] <= '9'; j++ {
		n = n*10 + int(d.b[j]-'0')
	}
	digits := j - start
	if digits == 0 || digits > maxIntDigits || (digits > 1 && d.b[start] == '0') {
		return false
	}
	if neg {
		n = -n
	}
	*dst, d.i = n, j
	return true
}

func (d *visitDecoder) bool(dst *bool) bool {
	rest := d.b[d.i:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		*dst = true
		d.i += len("true")
	case bytes.HasPrefix(rest, []byte("false")):
		*dst = false
		d.i += len("false")
	default:
		return false
	}
	return true
}

// time hands a plain string token to time.Time's own UnmarshalJSON,
// exactly as encoding/json does.
func (d *visitDecoder) time(dst *time.Time) bool {
	start := d.i
	_, plain, ok := d.stringToken()
	return ok && plain && dst.UnmarshalJSON(d.b[start:d.i]) == nil
}
