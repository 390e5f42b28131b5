// Wire format for the TCP record plane. One frame per request and per
// response, symmetric in both directions:
//
//	bytes 0..3   magic "MPW1"
//	byte  4      op
//	byte  5      flags (bit 1 = trace block present; others must be 0)
//	bytes 6..7   reserved (must be 0)
//	bytes 8..15  seq     (uint64 LE) — idempotency sequence number
//	bytes 16..19 machine (int32 LE)  — logical machine index, -1 if n/a
//	bytes 20..23 payload length (uint32 LE)
//	...          [trace block, 24 bytes, when flag bit 1 is set]
//	...          payload
//	last 4       CRC32-IEEE over header+payload (LE)
//
// Trace block (flagTrace): the obs.TraceContext of the coordinator span
// that sent the frame — the same identity a traceparent header carries —
// so the worker-side span serving the op records it as its parent:
//
//	bytes 0..15  trace id (16 bytes, as in traceparent)
//	bytes 16..23 span id  (uint64 LE) — the coordinator's attempt span
//
// The block counts toward the payload length and the CRC. Only requests
// carry it; responses are never traced (resp.Seq already ties each
// response to its request). Compatibility: untraced frames are
// byte-identical to the pre-trace format; a traced frame sent to a peer
// that does not know this block's flag bit fails loudly with ErrWire
// (unknown flags) instead of being misapplied, and so does a frame with
// the retired bit 0 (a 17-byte block) sent to this version — a
// mixed-version fleet surfaces as a transport error, never as silent
// corruption. Tracing is opt-in on the coordinator (EnableTracing)
// precisely so upgraded coordinators stay wire-compatible with old
// workers by default.
//
// The checksum makes payload corruption a detected transport failure
// instead of a silently wrong tree: a frame that fails its CRC poisons
// the connection (framing can no longer be trusted), and the coordinator
// reconnects and retries under the op's original seq.
//
// Sequencing: the coordinator stamps every state-touching op with a
// strictly increasing seq and REUSES that seq across retries of the same
// op. The worker remembers the last seq it applied and the response it
// sent; a duplicate (same seq) returns the cached response without
// re-applying, which is what makes "send it again" a safe recovery move
// for non-idempotent ops like Append. seq 0 is reserved for unsequenced
// ops (Hello, Ping) that are never deduped.
package mpcnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"mpctree/internal/obs"
)

// Op identifies a frame's operation (requests) or disposition (responses).
type Op byte

// Request ops (coordinator → worker) and response ops (worker →
// coordinator). Response payloads: RespData carries op-specific bytes
// (encoded records for OpRead, a uvarint for OpWords); RespErr carries a
// human-readable reason.
const (
	OpHello  Op = 1 // handshake; unsequenced
	OpRead   Op = 3 // fetch machine store → RespData(records)
	OpWrite  Op = 4 // replace machine store; payload records
	OpAppend Op = 5 // append to machine store; payload records
	OpWords  Op = 6 // resident word count → RespData(uvarint)
	OpReset  Op = 7 // clear all stores on this worker
	OpPing   Op = 8 // liveness probe; unsequenced

	RespOK   Op = 64
	RespData Op = 65
	RespErr  Op = 66
)

func (o Op) String() string {
	switch o {
	case OpHello:
		return "hello"
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpAppend:
		return "append"
	case OpWords:
		return "words"
	case OpReset:
		return "reset"
	case OpPing:
		return "ping"
	case RespOK:
		return "ok"
	case RespData:
		return "data"
	case RespErr:
		return "err"
	}
	return fmt.Sprintf("op(%d)", byte(o))
}

const (
	wireMagic  = "MPW1"
	headerLen  = 24
	trailerLen = 4 // CRC32
	// flagTrace marks a frame whose payload region begins with a traceLen-
	// byte trace block. Any other flag bit is a wire violation; bit 0
	// marked an older 17-byte block and is refused.
	flagTrace = 0x02
	traceLen  = 24
	// maxPayload bounds a single frame. Stores are capped by the model's
	// CapWords (words are 8 bytes), so legitimate frames are far smaller;
	// the bound exists to stop a corrupted length field from driving a
	// giant allocation before the CRC gets a chance to fail.
	maxPayload = 1 << 28
)

// ErrWire is the class of framing-level failures: bad magic, length out
// of range, checksum mismatch, short reads. A connection that produced
// one can no longer be trusted to be frame-aligned and must be redialed.
var ErrWire = errors.New("mpcnet: wire protocol violation")

// Frame is one decoded message.
type Frame struct {
	Op      Op
	Seq     uint64
	Machine int32
	Payload []byte

	// Trace, when valid, is the context of the coordinator span that
	// sent the frame; the zero value is an untraced frame. It rides in
	// the payload region on the wire but is stripped before Payload is
	// handed to op handlers, so tracing never changes what an op sees.
	Trace obs.TraceContext
}

// AppendFrame appends the encoded frame (header, payload, CRC) to dst.
func AppendFrame(dst []byte, f Frame) []byte {
	start := len(dst)
	traced := f.Trace.Valid()
	flags := byte(0)
	plen := len(f.Payload)
	if traced {
		flags = flagTrace
		plen += traceLen
	}
	dst = append(dst, wireMagic...)
	dst = append(dst, byte(f.Op), flags, 0, 0)
	dst = binary.LittleEndian.AppendUint64(dst, f.Seq)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(f.Machine))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(plen))
	if traced {
		dst = append(dst, f.Trace.TraceID[:]...)
		dst = binary.LittleEndian.AppendUint64(dst, f.Trace.SpanID)
	}
	dst = append(dst, f.Payload...)
	sum := crc32.ChecksumIEEE(dst[start:])
	return binary.LittleEndian.AppendUint32(dst, sum)
}

// frameWireLen is the frame's full on-the-wire size in bytes, trace
// context and CRC included — the figure the byte accounting counters use.
func frameWireLen(f Frame) int {
	n := headerLen + len(f.Payload) + trailerLen
	if f.Trace.Valid() {
		n += traceLen
	}
	return n
}

// WriteFrame encodes and writes one frame.
func WriteFrame(w io.Writer, f Frame) error {
	buf := AppendFrame(make([]byte, 0, headerLen+len(f.Payload)+trailerLen), f)
	_, err := w.Write(buf)
	return err
}

// ReadFrame reads and validates one frame. Any violation — wrong magic,
// oversized length, failed checksum — returns an ErrWire-class error;
// io.EOF passes through untouched so callers can distinguish a clean
// close from a torn one.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return Frame{}, io.EOF
		}
		return Frame{}, fmt.Errorf("%w: short header: %v", ErrWire, err)
	}
	if string(hdr[:4]) != wireMagic {
		return Frame{}, fmt.Errorf("%w: bad magic %q", ErrWire, hdr[:4])
	}
	if hdr[5]&^byte(flagTrace) != 0 || hdr[6] != 0 || hdr[7] != 0 {
		return Frame{}, fmt.Errorf("%w: nonzero reserved bytes", ErrWire)
	}
	plen := binary.LittleEndian.Uint32(hdr[20:24])
	if plen > maxPayload {
		return Frame{}, fmt.Errorf("%w: payload length %d exceeds limit %d", ErrWire, plen, maxPayload)
	}
	f := Frame{
		Op:      Op(hdr[4]),
		Seq:     binary.LittleEndian.Uint64(hdr[8:16]),
		Machine: int32(binary.LittleEndian.Uint32(hdr[16:20])),
	}
	rest := make([]byte, int(plen)+trailerLen)
	if _, err := io.ReadFull(r, rest); err != nil {
		return Frame{}, fmt.Errorf("%w: short payload: %v", ErrWire, err)
	}
	want := binary.LittleEndian.Uint32(rest[plen:])
	sum := crc32.ChecksumIEEE(hdr[:])
	sum = crc32.Update(sum, crc32.IEEETable, rest[:plen])
	if sum != want {
		return Frame{}, fmt.Errorf("%w: checksum mismatch on %s frame seq %d (got %08x want %08x)",
			ErrWire, f.Op, f.Seq, sum, want)
	}
	body := rest[:plen]
	if hdr[5]&flagTrace != 0 {
		if len(body) < traceLen {
			return Frame{}, fmt.Errorf("%w: traced %s frame seq %d shorter than trace context (%d bytes)",
				ErrWire, f.Op, f.Seq, len(body))
		}
		f.Trace = obs.TraceContext{SpanID: binary.LittleEndian.Uint64(body[16:24]), Sampled: true}
		copy(f.Trace.TraceID[:], body[:16])
		if !f.Trace.Valid() {
			return Frame{}, fmt.Errorf("%w: traced %s frame seq %d has a zero trace or span id", ErrWire, f.Op, f.Seq)
		}
		body = body[traceLen:]
	}
	if len(body) > 0 {
		f.Payload = body[:len(body):len(body)]
	}
	return f, nil
}
