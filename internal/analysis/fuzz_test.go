package analysis

import (
	"bytes"
	"encoding/binary"
	"maps"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/netmeasure/topicscope/internal/attestation"
	"github.com/netmeasure/topicscope/internal/dataset"
	"github.com/netmeasure/topicscope/internal/durable"
)

// encodeSegments re-encodes and re-frames a decoded segment chain, each
// delta extending its predecessors' string table.
func encodeSegments(segs []*segment) []byte {
	var out []byte
	var table *stringTable
	for _, seg := range segs {
		var payload []byte
		payload, table = seg.encode(table)
		out = durable.AppendFrame(out, payload)
	}
	return out
}

// hostileCounts are framed segments each claiming 2^40 (or 2^20)
// entries in a payload of 20-odd bytes: the string-table size, a string
// length, the phase map, a per-caller set map, a site set and the epoch
// map.
func hostileCounts() map[string][]byte {
	// An accumulator with every map nil encodes each field as one zero
	// byte after a 14-byte header and an empty string table.
	blank, _ := (&segment{Journal: "j", live: &LiveIndex{}}).encode(nil)
	header, fields := blank[:14], blank[:15]
	withA := append(append([]byte(nil), header...), 1, 1, 'a') // table ["a"]
	huge := binary.AppendUvarint(nil, 1<<40)
	big := binary.AppendUvarint(nil, 1<<20)
	join := func(parts ...[]byte) []byte { return durable.AppendFrame(nil, bytes.Join(parts, nil)) }
	return map[string][]byte{
		"table-size":      join(header, huge),
		"table-size-2^20": join(header, big),
		"string-length":   join(header, []byte{1}, huge),
		"phase-map":       join(fields, huge),
		"set-map":         join(withA, []byte{1, 0}, huge),
		"site-set":        join(withA, []byte{0, 0, 0}, huge),
		"site-set-2^20":   join(withA, []byte{0, 0, 0}, big),
		"epoch-map-2^20":  join(blank[:len(blank)-1], big),
	}
}

// TestIndexSnapshotDecodeHostileCounts pins the decoder's allocation
// bound: a payload claiming more entries than its remaining bytes could
// hold is rejected before anything is sized from the claim, so decoding
// it allocates in proportion to the payload, not the count.
func TestIndexSnapshotDecodeHostileCounts(t *testing.T) {
	for name, data := range hostileCounts() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := decodeSegments(data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: hostile count accepted", name)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<10 {
			t.Errorf("%s: decoding %d bytes allocated %d bytes", name, len(data), alloc)
		}
	}
}

// FuzzIndexSnapshotDecode hardens the .idx segment-log decoder: no input
// may panic it, and anything it accepts must be a well-formed chain (a
// full segment, then deltas each continuing its predecessor) that
// re-encodes to a fixed point — decode ∘ encode returns the same chain
// byte for byte, with nothing trailing.
func FuzzIndexSnapshotDecode(f *testing.F) {
	at := time.Date(2024, 3, 4, 0, 0, 0, 0, time.UTC)
	visits := []dataset.Visit{
		{Site: "a.com", Rank: 1, Phase: dataset.BeforeAccept, Success: true, BannerDetected: true, Accepted: true, CMP: "OneTrust",
			FetchedAt: at, Resources: []dataset.Resource{{Host: "cdn.ads.example", ThirdParty: true}},
			Calls: []dataset.TopicsCall{{Caller: "ads.example", Type: dataset.CallJavaScript}}},
		{Site: "a.com", Rank: 1, Phase: dataset.AfterAccept, Success: true, FetchedAt: at,
			Calls: []dataset.TopicsCall{{Caller: "tracker.example", Type: dataset.CallFetch}}},
		{Site: "b.org", Rank: 2, Phase: dataset.BeforeAccept, Error: "timeout", Retries: 2},
	}
	// Seed with a real log: a full segment for the first record, then one
	// delta per record.
	in := &Input{Allowlist: attestation.NewAllowlist("ads.example")}
	var log []byte
	var payloads [][]byte
	var table *stringTable
	for i := range visits {
		live := NewLiveIndex(in)
		live.Fold(&visits[i])
		var payload []byte
		payload, table = live.segment("crawl.jsonl.gz", int64(i), durable.Checkpoint{Records: int64(i + 1), PayloadCRC: uint32(i)}).encode(table)
		log = durable.AppendFrame(log, payload)
		payloads = append(payloads, payload)
	}
	if segs, _, err := decodeSegments(log); err != nil || len(segs) != len(visits) {
		f.Fatalf("seed log decodes to %d segments (%v), want %d", len(segs), err, len(visits))
	}
	f.Add(log)
	f.Add(log[:len(log)/2])
	f.Add(append(append([]byte(nil), log...), "#r 9 0\n{}"...))
	f.Add(durable.AppendFrame(nil, []byte(`{"version":2,"records":3,"visits":3}`)))
	f.Add(durable.AppendFrame(nil, []byte(`{"version":2,"records":3,"base":1,"visits":2}`)))
	f.Add([]byte(`{"version":1,"records":0,"visits":0}` + "\n"))
	f.Add([]byte{})
	// Payloads cut short but framed with a valid CRC, so only the
	// decoder's own bounds can reject them.
	for _, cut := range []int{1, 12, len(payloads[0]) / 2, len(payloads[0]) - 1} {
		f.Add(durable.AppendFrame(nil, payloads[0][:cut]))
	}
	f.Add(durable.AppendFrame(nil, payloads[1]))
	hostile := hostileCounts()
	for _, name := range slices.Sorted(maps.Keys(hostile)) {
		f.Add(hostile[name])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		segs, log, err := decodeSegments(data)
		if err != nil {
			return
		}
		if len(segs) == 0 || segs[0].Base != 0 {
			t.Fatalf("decoder admitted a chain without a leading full segment: %d segments", len(segs))
		}
		for i, seg := range segs[1:] {
			if seg.Base != segs[i].Records || seg.Records <= seg.Base {
				t.Fatalf("decoder admitted a broken chain at segment %d: (%d,%d] after %d", i+1, seg.Base, seg.Records, segs[i].Records)
			}
		}
		if log.records != segs[len(segs)-1].Records {
			t.Fatalf("log layout covers %d records, chain %d", log.records, segs[len(segs)-1].Records)
		}
		once := encodeSegments(segs)
		again, relog, err := decodeSegments(once)
		if err != nil {
			t.Fatalf("re-encoded chain rejected: %v", err)
		}
		if relog.trailing || len(again) != len(segs) {
			t.Fatalf("re-encoded chain decodes to %d segments (trailing %v), want %d", len(again), relog.trailing, len(segs))
		}
		if twice := encodeSegments(again); !bytes.Equal(once, twice) {
			t.Fatalf("chain encoding is not a fixed point:\n%q\n%q", once, twice)
		}
	})
}
