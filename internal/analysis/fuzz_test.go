package analysis

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"github.com/netmeasure/topicscope/internal/attestation"
	"github.com/netmeasure/topicscope/internal/dataset"
	"github.com/netmeasure/topicscope/internal/durable"
)

// encodeSegments re-frames a decoded segment chain.
func encodeSegments(t *testing.T, segs []*liveSnapshot) []byte {
	t.Helper()
	var out []byte
	for _, seg := range segs {
		payload, err := json.Marshal(seg)
		if err != nil {
			t.Fatalf("re-encoding a decoded segment: %v", err)
		}
		out = durable.AppendFrame(out, payload)
	}
	return out
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
	for i := range visits {
		live := NewLiveIndex(in)
		live.Fold(&visits[i])
		payload, err := live.segment("crawl.jsonl.gz", int64(i), durable.Checkpoint{Records: int64(i + 1), PayloadCRC: uint32(i)})
		if err != nil {
			f.Fatal(err)
		}
		log = durable.AppendFrame(log, payload)
	}
	f.Add(log)
	f.Add(log[:len(log)/2])
	f.Add(append(append([]byte(nil), log...), "#r 9 0\n{}"...))
	f.Add(durable.AppendFrame(nil, []byte(`{"version":2,"records":3,"visits":3}`)))
	f.Add(durable.AppendFrame(nil, []byte(`{"version":2,"records":3,"base":1,"visits":2}`)))
	f.Add([]byte(`{"version":1,"records":0,"visits":0}` + "\n"))
	f.Add([]byte{})
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
		once := encodeSegments(t, segs)
		again, relog, err := decodeSegments(once)
		if err != nil {
			t.Fatalf("re-encoded chain rejected: %v", err)
		}
		if relog.trailing || len(again) != len(segs) {
			t.Fatalf("re-encoded chain decodes to %d segments (trailing %v), want %d", len(again), relog.trailing, len(segs))
		}
		if twice := encodeSegments(t, again); !bytes.Equal(once, twice) {
			t.Fatalf("chain encoding is not a fixed point:\n%s\n%s", once, twice)
		}
	})
}
