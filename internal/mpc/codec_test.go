package mpc

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

func sampleRecords() []Record {
	return []Record{
		{},
		{Key: "k", Tag: 7},
		{Key: "point/3", Tag: 1, Ints: []int64{-1, 0, math.MaxInt64, math.MinInt64}},
		{Key: "", Tag: 255, Data: []float64{0, -0.0, 1.5, math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64}},
		{Key: string([]byte{0, 1, 2, 0xff}), Ints: []int64{42}, Data: []float64{-3.25}},
	}
}

// recordsEquivalent compares records treating nil and empty slices as
// equal (decode leaves absent fields nil) and NaNs as equal bitwise.
func recordsEquivalent(a, b Record) bool {
	if a.Key != b.Key || a.Tag != b.Tag || len(a.Ints) != len(b.Ints) || len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Ints {
		if a.Ints[i] != b.Ints[i] {
			return false
		}
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

func TestRecordsRoundTrip(t *testing.T) {
	// NaN payloads must survive bit-exactly too.
	recs := append(sampleRecords(), Record{Key: "nan", Data: []float64{math.NaN()}})
	got, err := DecodeRecords(EncodeRecords(recs))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !recordsEquivalent(recs[i], got[i]) {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, recs[i], got[i])
		}
	}
	// Empty slice round-trips to empty.
	if got, err := DecodeRecords(EncodeRecords(nil)); err != nil || len(got) != 0 {
		t.Fatalf("empty slice: %v, %v", got, err)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	valid := EncodeRecords(sampleRecords())
	cases := map[string][]byte{
		"empty":            {},
		"truncated header": valid[:1],
		"truncated middle": valid[:len(valid)/2],
		"truncated by one": valid[:len(valid)-1],
		"trailing garbage": append(append([]byte{}, valid...), 0x00),
		// Count says 1000 records but only a few bytes follow: rejected
		// before any large allocation.
		"oversized count":      append([]byte{0xe8, 0x07}, 1, 'x', 0, 0, 0),
		"oversized key length": {1, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"oversized int count":  {1, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"oversized data count": {1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"missing tag":          {1, 1, 'k'},
		"varint all high bits": bytes.Repeat([]byte{0x80}, 12),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := DecodeRecords(data); !errors.Is(err, ErrCodec) {
				t.Fatalf("accepted malformed payload (err %v)", err)
			}
		})
	}
}

// FuzzRecordCodec throws mutated encodings at the decoder: it must never
// panic, never allocate absurdly, and on success re-encode to bytes that
// decode to the same records (decode∘encode is idempotent).
func FuzzRecordCodec(f *testing.F) {
	f.Add(EncodeRecords(nil))
	f.Add(EncodeRecords(sampleRecords()))
	f.Add(EncodeRecords([]Record{{Key: "seed", Ints: []int64{1, 2, 3}}}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add(bytes.Repeat([]byte{0x80}, 16))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := DecodeRecords(data)
		if err != nil {
			if !errors.Is(err, ErrCodec) {
				t.Fatalf("non-codec error class: %v", err)
			}
			return
		}
		// Successful decodes must round-trip stably.
		re := EncodeRecords(recs)
		recs2, err := DecodeRecords(re)
		if err != nil {
			t.Fatalf("re-decode of re-encoded payload failed: %v", err)
		}
		if len(recs) != len(recs2) {
			t.Fatalf("re-decode count %d, want %d", len(recs2), len(recs))
		}
		for i := range recs {
			if !recordsEquivalent(recs[i], recs2[i]) {
				t.Fatalf("record %d unstable across re-encode", i)
			}
		}
	})
}
