package wal

import (
	"reflect"
	"testing"
)

// FuzzWALRecord drives the record payload parser with hostile input.
// The invariants:
//
//  1. parsePayload never panics and never allocates beyond the input's
//     own size class (the bounds checks reject hostile lengths first).
//  2. Any accepted payload round-trips: re-encoding the parsed record
//     and parsing again yields the same record. Varint encodings are
//     not forced canonical on input, so bytes may differ — the
//     semantic value must not.
//
// Seeds in testdata/fuzz/FuzzWALRecord cover truncated spec and scheme
// records, a bit-flipped valid record, and hostile claimed lengths (a
// support, a scheme's design); CI replays them via `make fuzz-seeds`.
func FuzzWALRecord(f *testing.F) {
	f.Add(appendSpecPayload(nil, CampaignSpec{
		ID: "c1", Tenant: "acme", TraceID: "t", SchemeRef: "{}",
		Noise: "exact", Decoder: "comp", K: 2,
		Batch: [][]int64{{1, -2}, {3, 4}},
	}))
	f.Add(appendEventPayload(nil, EventRecord{
		Seq: 3, Index: 1, Status: StatusCompleted, Decoder: "comp",
		Residual: -5, Consistent: true, DecodeNS: 99, Support: []int{0, 7},
	}))
	f.Add(appendEventPayload(nil, EventRecord{
		Seq: 1, Index: 0, Status: StatusFailed, Error: "boom",
	}))
	f.Add(appendCancelPayload(nil))
	f.Add(appendSealPayload(nil, Seal{State: "done", Completed: 4, Failed: 1}))
	f.Add(appendSchemePayload(nil, SchemeRecord{ID: "s1", Ref: `{"design":"random-regular","n":10,"m":5}`}))
	f.Add(appendSchemePayload(nil, SchemeRecord{
		ID: "s2", Ref: `{"design":"uploaded","n":4,"m":1,"ad_hoc":true}`,
		Design: []byte("pd\x01\x04\x01\x02\x01\x01\x02\x01"),
	}))

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := parsePayload(data)
		if err != nil {
			return
		}
		var reenc []byte
		switch rec.kind {
		case recSpec:
			reenc = appendSpecPayload(nil, rec.spec)
		case recEvent:
			reenc = appendEventPayload(nil, rec.event)
		case recCancel:
			reenc = appendCancelPayload(nil)
		case recSeal:
			reenc = appendSealPayload(nil, rec.seal)
		case recScheme:
			reenc = appendSchemePayload(nil, rec.scheme)
		default:
			t.Fatalf("accepted unknown kind %d", rec.kind)
		}
		rec2, err := parsePayload(reenc)
		if err != nil {
			t.Fatalf("re-encoded record rejected: %v\noriginal: %x\nreencoded: %x", err, data, reenc)
		}
		if !reflect.DeepEqual(rec, rec2) {
			t.Fatalf("round-trip mismatch:\n  first:  %+v\n  second: %+v", rec, rec2)
		}
	})
}
