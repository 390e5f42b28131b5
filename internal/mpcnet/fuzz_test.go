package mpcnet

import (
	"bytes"
	"testing"

	"mpctree/internal/mpc"
	"mpctree/internal/obs"
)

// FuzzReadFrame: the frame decoder faces the network, so it must never
// panic, and any frame it accepts must re-encode through AppendFrame to
// exactly the bytes it consumed — nothing in an accepted frame may be
// ignored or normalized away.
func FuzzReadFrame(f *testing.F) {
	payload := mpc.EncodeRecords([]mpc.Record{{Key: "k", Ints: []int64{1, 2}, Data: []float64{0.5}}})
	tc := obs.TraceContext{TraceID: [16]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, SpanID: 0xfeedface, Sampled: true}
	plain := AppendFrame(nil, Frame{Op: OpAppend, Seq: 7, Machine: 2, Payload: payload})
	traced := AppendFrame(nil, Frame{Op: OpAppend, Seq: 7, Machine: 2, Payload: payload, Trace: tc})
	f.Add(plain)
	f.Add(traced)
	f.Add(AppendFrame(nil, Frame{Op: OpPing}))
	f.Add(AppendFrame(nil, Frame{Op: OpRead, Seq: 1, Machine: -1, Trace: tc}))
	for _, flag := range []byte{0x01, 0x04, 0x80} { // unknown flag bits
		bad := append([]byte(nil), plain...)
		bad[5] = flag
		reseal(bad)
		f.Add(bad)
	}
	short := AppendFrame(nil, Frame{Op: OpPing}) // trace flag, no block
	short[5] = flagTrace
	reseal(short)
	f.Add(short)
	f.Add(traced[:len(traced)-3]) // torn mid-CRC
	f.Add(append(append([]byte(nil), plain...), traced...))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		fr, err := ReadFrame(r)
		if err != nil {
			return
		}
		consumed := data[:len(data)-r.Len()]
		if again := AppendFrame(nil, fr); !bytes.Equal(again, consumed) {
			t.Fatalf("accepted frame %+v re-encodes to\n%x\nbut consumed\n%x", fr, again, consumed)
		}
	})
}
