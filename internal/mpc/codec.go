// Binary encoding for record slices — the serialization layer a network
// transport (internal/mpcnet) moves round payloads through.
//
// The format follows the repository's hst serialization discipline
// (internal/hst/serialize.go): explicit little-endian layout, varint
// counts, and decoders that validate every count against the bytes that
// remain BEFORE allocating — a frame that lies about its payload sizes is
// rejected with ErrCodec instead of an OOM or a silent truncation.
//
// Layout of one record:
//
//	uvarint  len(Key)   | Key bytes
//	byte     Tag
//	uvarint  len(Ints)  | len(Ints) × uint64 (little-endian)
//	uvarint  len(Data)  | len(Data) × float64 bits (little-endian)
//
// A record slice is  uvarint count | count × record.
package mpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrCodec is the class of every malformed-payload decoding error:
// truncated buffers, counts exceeding the bytes present, and trailing
// garbage all match it via errors.Is.
var ErrCodec = errors.New("mpc: malformed binary payload")

func codecErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCodec, fmt.Sprintf(format, args...))
}

// appendRecord appends the binary encoding of r to dst and returns the
// extended slice.
func appendRecord(dst []byte, r Record) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(r.Key)))
	dst = append(dst, r.Key...)
	dst = append(dst, r.Tag)
	dst = binary.AppendUvarint(dst, uint64(len(r.Ints)))
	for _, v := range r.Ints {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	dst = binary.AppendUvarint(dst, uint64(len(r.Data)))
	for _, v := range r.Data {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// decodeRecord decodes one record from buf, returning the remainder.
// Every count is validated against the remaining length before any
// allocation, so a corrupted count cannot force an oversized allocation.
func decodeRecord(buf []byte) (Record, []byte, error) {
	var r Record
	klen, n := binary.Uvarint(buf)
	if n <= 0 {
		return r, nil, codecErr("bad key length")
	}
	buf = buf[n:]
	if klen > uint64(len(buf)) {
		return r, nil, codecErr("key length %d exceeds %d remaining bytes", klen, len(buf))
	}
	if klen > 0 {
		r.Key = string(buf[:klen])
		buf = buf[klen:]
	}
	if len(buf) < 1 {
		return r, nil, codecErr("missing tag")
	}
	r.Tag = buf[0]
	buf = buf[1:]

	ni, n := binary.Uvarint(buf)
	if n <= 0 {
		return r, nil, codecErr("bad int count")
	}
	buf = buf[n:]
	if ni > uint64(len(buf))/8 {
		return r, nil, codecErr("int count %d exceeds %d remaining bytes", ni, len(buf))
	}
	if ni > 0 {
		r.Ints = make([]int64, ni)
		for i := range r.Ints {
			r.Ints[i] = int64(binary.LittleEndian.Uint64(buf[8*i:]))
		}
		buf = buf[8*ni:]
	}

	nd, n := binary.Uvarint(buf)
	if n <= 0 {
		return r, nil, codecErr("bad float count")
	}
	buf = buf[n:]
	if nd > uint64(len(buf))/8 {
		return r, nil, codecErr("float count %d exceeds %d remaining bytes", nd, len(buf))
	}
	if nd > 0 {
		r.Data = make([]float64, nd)
		for i := range r.Data {
			r.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
		}
		buf = buf[8*nd:]
	}
	return r, buf, nil
}

// appendRecords appends the encoding of a record slice (uvarint count +
// records) to dst.
func appendRecords(dst []byte, recs []Record) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(recs)))
	for _, r := range recs {
		dst = appendRecord(dst, r)
	}
	return dst
}

// EncodeRecords encodes a record slice into a fresh buffer.
func EncodeRecords(recs []Record) []byte {
	// Pre-size: Words() over-counts bytes only slightly (8 bytes/word plus
	// varint headers), so one allocation usually suffices.
	return appendRecords(make([]byte, 0, 16+8*WordsOf(recs)), recs)
}

// DecodeRecords decodes a record slice encoded by EncodeRecords,
// rejecting trailing bytes. A declared count can never allocate more than
// the bytes present justify: every record is decoded incrementally and a
// short buffer fails at the first missing byte.
func DecodeRecords(data []byte) ([]Record, error) {
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, codecErr("bad record count")
	}
	buf := data[n:]
	// Each record needs ≥ 4 bytes (3 varint zeros + tag); an absurd count
	// on a short buffer is rejected up front rather than looped over.
	if count > uint64(len(buf))/4+1 {
		return nil, codecErr("record count %d exceeds %d remaining bytes", count, len(buf))
	}
	var recs []Record
	if count > 0 {
		recs = make([]Record, 0, count)
	}
	for i := uint64(0); i < count; i++ {
		var (
			r   Record
			err error
		)
		r, buf, err = decodeRecord(buf)
		if err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
		recs = append(recs, r)
	}
	if len(buf) != 0 {
		return nil, codecErr("%d trailing bytes after %d records", len(buf), len(recs))
	}
	return recs, nil
}
