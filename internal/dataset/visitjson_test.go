package dataset

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// fixtureRecords returns the lines of testdata/visits.jsonl: records
// taken from a `topics-crawl -seed 3 -sites 120 -chaos` journal to cover
// Topics calls, failed resources, partial and retried visits, and error
// text with escaped quotes.
func fixtureRecords(t testing.TB) [][]byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "visits.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
}

// decodeVisitSeeds are the inputs at the edge of DecodeVisit's fast
// subset: each must decode exactly as encoding/json does, whichever
// path takes it.
var decodeVisitSeeds = []string{
	`{}`,
	``,
	`null`,
	`[]`,
	`{"site":"a.com","rank":7,"phase":"before_accept","success":true}`,
	// Whitespace between tokens.
	` {"site":"a.com"}`,
	`{ "site" : "a.com" , "rank" : 1 }`,
	"{\"site\":\"a.com\",\n\"resources\":[ {\"host\":\"h\"} ]}",
	// Escapes and invalid UTF-8.
	`{"site":"a\"b","error":"Get \"http://a.com/\": refused"}`,
	`{"site":"a\u0026b"}`,
	`{"site":"\ud83d\ude00"}`,
	`{"site":"\ud800"}`,
	`{"site":"\x"}`,
	`{"site":"é.fr"}`,
	"{\"site\":\"a\xffb\"}",
	"{\"site\":\"a\tb\"}",
	// Keys encoding/json case-folds, escapes in keys, unknown keys.
	`{"Site":"a.com"}`,
	`{"ſite":"a.com"}`,
	`{"s\u0069te":"a.com"}`,
	`{"extra":{"x":[1,2]},"site":"a.com"}`,
	// null fields and arrays.
	`{"site":null,"rank":null,"success":null}`,
	`{"resources":null,"calls":null}`,
	`{"resources":[null]}`,
	`{"fetchedAt":null}`,
	// Duplicate keys.
	`{"resources":[{"host":"a"}],"resources":[{"url":"b"}]}`,
	`{"site":"a.com","site":"b.com"}`,
	`{"resources":[{"host":"a","host":"b"}]}`,
	// Numbers.
	`{"rank":1e2}`,
	`{"rank":-0}`,
	`{"rank":-12}`,
	`{"rank":01}`,
	`{"rank":1.0}`,
	`{"rank":-}`,
	`{"rank":999999999999999999}`,
	`{"rank":1234567890123456789}`,
	`{"rank":99999999999999999999}`,
	`{"rank":"1"}`,
	`{"calls":[{"topicsReturned":3}],"retries":2}`,
	// Literals.
	`{"success":true,"accepted":false}`,
	`{"success":tru}`,
	`{"success":truex}`,
	`{"success":"true"}`,
	// Timestamps.
	`{"fetchedAt":"2024-03-30T12:00:00Z"}`,
	`{"fetchedAt":"2024-03-30T12:00:00.123456789+05:30"}`,
	`{"calls":[{"timestamp":"2024-03-30T12:00:00-07:00"}]}`,
	`{"fetchedAt":"10000-01-01T00:00:00Z"}`,
	`{"fetchedAt":"2024-03-30"}`,
	`{"fetchedAt":"2024-03-30T12:00:00\u005a"}`,
	`{"fetchedAt":1}`,
	// Empty versus absent arrays.
	`{"resources":[],"calls":[]}`,
	`{"resources":[{}],"calls":[{}]}`,
	`{"site":"a.com"}`,
	`{"resources":[{"url":"u"},]}`,
	`{"resources":[{"url":"u"}`,
	// Trailing bytes and truncation.
	`{"site":"a.com"}x`,
	`{"site":"a.com"} `,
	`{"site":"a.com"}{}`,
	`{"site":"a.com"`,
	`{"site":"a.com",}`,
	`{"site"`,
	`{"site":`,
}

// checkDecodeVisit asserts DecodeVisit ≡ json.Unmarshal into a zero
// Visit on b: the same value and the same error text.
func checkDecodeVisit(t *testing.T, b []byte) {
	t.Helper()
	var got, want Visit
	gotErr := DecodeVisit(b, &got)
	wantErr := json.Unmarshal(b, &want)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("DecodeVisit(%q) error = %v, json.Unmarshal error = %v", b, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeVisit(%q) =\n%#v\njson.Unmarshal =\n%#v", b, got, want)
	}
}

// FuzzDecodeVisit is the differential oracle of the record codec:
// encoding/json is the reference on every input.
func FuzzDecodeVisit(f *testing.F) {
	for _, rec := range fixtureRecords(f) {
		f.Add(rec)
	}
	for _, s := range decodeVisitSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(checkDecodeVisit)
}

// TestDecodeVisitFixtureFastPath pins that the records the writers emit
// — escaped quotes in error text included — decode on the fast path,
// not through the reflection fallback.
func TestDecodeVisitFixtureFastPath(t *testing.T) {
	recs := fixtureRecords(t)
	v := sampleVisit("example.com", AfterAccept, sampleCall("ads.example"), sampleCall("cdn.example"))
	canon, err := json.Marshal(&v)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range append(recs, canon) {
		checkDecodeVisit(t, rec)
		d := &visitDecoder{b: rec}
		var fast Visit
		if !d.visit(&fast) || d.i != len(rec) {
			t.Errorf("record took the fallback: %.120s", rec)
		}
	}
}

// TestDecodeVisitAllocs is the allocation ceiling of the fast path: 12
// for this record — one per array and per string that repeats no
// string decoded before it — plus a margin of 2. A return to reflection
// costs several times this.
func TestDecodeVisitAllocs(t *testing.T) {
	v := sampleVisit("example.com", AfterAccept, sampleCall("ads.example"), sampleCall("cdn.example"))
	rec, err := json.Marshal(&v)
	if err != nil {
		t.Fatal(err)
	}
	var got Visit
	allocs := testing.AllocsPerRun(100, func() {
		if err := DecodeVisit(rec, &got); err != nil {
			t.Fatal(err)
		}
	})
	if !reflect.DeepEqual(got, v) {
		t.Fatalf("decoded %#v, want %#v", got, v)
	}
	t.Logf("%.0f allocations per record", allocs)
	const ceiling = 14
	if allocs > ceiling {
		t.Errorf("DecodeVisit allocates %.0f times per record, ceiling %d", allocs, ceiling)
	}
}

// TestDecodeVisitConcurrent decodes from several goroutines at once;
// under -race it checks that the pooled scratch state is never shared.
func TestDecodeVisitConcurrent(t *testing.T) {
	recs := fixtureRecords(t)
	want := make([]Visit, len(recs))
	for i, rec := range recs {
		if err := json.Unmarshal(rec, &want[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 50; n++ {
				i := (g + n) % len(recs)
				var v Visit
				if err := DecodeVisit(recs[i], &v); err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(v, want[i]) {
					t.Errorf("goroutine %d: record %d decoded differently", g, i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestReadVerifiesFrames pins frame verification in Read: a flipped
// digit inside a framed record of a plain journal still parses as JSON,
// so only the frame's CRC can catch it; the same bytes unframed load.
func TestReadVerifiesFrames(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crawl.jsonl")
	w, err := CreateJournal(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []Visit{sampleVisit("a.com", BeforeAccept), sampleVisit("b.com", BeforeAccept)} {
		if err := w.Write(&v); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	framed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if d, err := Load(bytes.NewReader(framed)); err != nil || d.Len() != 2 {
		t.Fatalf("intact framed journal: %v", err)
	}

	flipped := bytes.Replace(framed, []byte(`"rank":42`), []byte(`"rank":43`), 1)
	var unframed []byte
	for _, line := range bytes.SplitAfter(flipped, []byte("\n")) {
		if !bytes.HasPrefix(line, frameHeaderPrefix) {
			unframed = append(unframed, line...)
		}
	}
	const want = "dataset: line 1: frame length/CRC mismatch (run topics-fsck)"
	if _, err := Load(bytes.NewReader(flipped)); err == nil || err.Error() != want {
		t.Errorf("flipped framed journal: err = %v, want %q", err, want)
	}
	d, err := Load(bytes.NewReader(unframed))
	if err != nil || d.Len() != 2 || d.Visits[0].Rank != 43 {
		t.Errorf("unframed journal: %v", err)
	}

	header, _, _ := bytes.Cut(framed, []byte("\n"))
	if _, err := Load(bytes.NewReader(append(header, '\n'))); err == nil || !strings.Contains(err.Error(), "frame length/CRC mismatch") {
		t.Errorf("header without its record: err = %v", err)
	}
}
