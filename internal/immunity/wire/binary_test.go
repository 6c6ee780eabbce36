package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"
)

// TestBinaryRoundTrip: every fixture survives the codec exactly,
// including the nil/empty collection distinction.
func TestBinaryRoundTrip(t *testing.T) {
	for _, m := range fixtures() {
		b, err := EncodeBinary(m)
		if err != nil {
			t.Fatalf("encode %s: %v", m.Type, err)
		}
		got, err := DecodeBinary(b)
		if err != nil {
			t.Fatalf("decode %s: %v", m.Type, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("binary round trip %s:\n got %+v\nwant %+v", m.Type, got, m)
		}
	}
}

// TestBinaryFrameRoundTrip: every fixture frames and reads back through
// the buffered Reader, back to back on one stream.
func TestBinaryFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msgs := fixtures()
	for _, m := range msgs {
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatalf("write %s: %v", m.Type, err)
		}
	}
	r := NewReader(bytes.NewReader(buf.Bytes()))
	for _, w := range msgs {
		got, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("read %s: %v", w.Type, err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("frame round trip %s:\n got %+v\nwant %+v", w.Type, got, w)
		}
	}
	if _, err := r.ReadFrame(); err != io.EOF {
		t.Fatalf("EOF after last frame, got %v", err)
	}
}

// TestBinaryFrameFlagBit: the frame header is a plain length. A frame
// from an older endpoint that set the top header bit as a codec flag
// reads as an impossible length and is refused before any payload
// allocation, never mis-parsed.
func TestBinaryFrameFlagBit(t *testing.T) {
	frame, err := AppendFrame(nil, Message{Type: TypeStatusReq})
	if err != nil {
		t.Fatal(err)
	}
	if n := binary.BigEndian.Uint32(frame[:4]); int(n) != len(frame)-4 {
		t.Fatalf("header %#x is not the payload length %d", n, len(frame)-4)
	}
	flagged := append([]byte(nil), frame...)
	flagged[0] |= 0x80
	if _, err := ReadFrame(bytes.NewReader(flagged)); err == nil {
		t.Fatal("frame with the retired codec flag bit accepted")
	}
}

// TestDecodeNormalizesEmptyEpochs: the optional collections encode an
// empty value as absent, so decode yields nil — one canonical form.
func TestDecodeNormalizesEmptyEpochs(t *testing.T) {
	for _, m := range []Message{
		{Type: TypeHello, Hello: &Hello{Device: "d", Epochs: map[string]uint64{}}},
		{Type: TypeStatus, Status: &Status{Tenants: []TenantStatus{}}},
	} {
		b, err := EncodeBinary(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeBinary(b)
		if err != nil {
			t.Fatal(err)
		}
		if (got.Hello != nil && got.Hello.Epochs != nil) || (got.Status != nil && got.Status.Tenants != nil) {
			t.Fatalf("round trip kept an empty optional collection: %+v", got)
		}
	}
}

// TestBinaryEncodeCoercesInvalidUTF8: the encoder replaces every
// invalid byte with its own U+FFFD (the decoder refuses invalid UTF-8,
// so a bad string must never produce a frame the receiver refuses).
func TestBinaryEncodeCoercesInvalidUTF8(t *testing.T) {
	cases := map[string]string{
		"dev\xffice":   "dev\uFFFDice",
		"a\xff\xfeb":   "a\uFFFD\uFFFDb", // one per byte, not one per run
		"\xff\xff\xff": "\uFFFD\uFFFD\uFFFD",
		"ok�already":   "ok�already",
	}
	for bad, want := range cases {
		b, err := EncodeBinary(Message{Type: TypeHello, Hello: &Hello{Device: bad}})
		if err != nil {
			t.Fatal(err)
		}
		m, err := DecodeBinary(b)
		if err != nil {
			t.Fatalf("%q: coerced frame refused: %v", bad, err)
		}
		if m.Hello.Device != want {
			t.Fatalf("%q: coerced to %q, want %q", bad, m.Hello.Device, want)
		}
	}
}

// envelope starts a raw payload: the version varint and a type code.
func envelope(code byte) []byte { return append(appendInt(nil, Version), code) }

// TestBinaryHostileLengthNoHugeAlloc: a frame claiming millions of
// elements it cannot back must fail with bounded allocation, not cost
// count × element-size up front.
func TestBinaryHostileLengthNoHugeAlloc(t *testing.T) {
	// A report envelope claiming 2M signatures, "backed" by 2 MiB of
	// 0xff so the byte-count sanity check passes — the first element
	// then fails to decode. Preallocating count × sizeof(Signature)
	// up front would cost ~80 MB here before that failure.
	const n = 2 << 20
	frame := appendU64(envelope(binReport), uint64(n)+1)
	frame = append(frame, bytes.Repeat([]byte{0xff}, n)...)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := DecodeBinary(frame); err == nil {
		t.Fatal("hostile length accepted")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Fatalf("hostile length cost %d bytes of allocation", grew)
	}
}

// TestBinaryDecodeRejects: truncated, trailing-garbage, and
// hostile-length envelopes fail cleanly.
func TestBinaryDecodeRejects(t *testing.T) {
	good, err := EncodeBinary(Message{Type: TypeReport,
		Report: &Report{Sigs: []Signature{FromCore(testSig())}}})
	if err != nil {
		t.Fatal(err)
	}
	cases := [][]byte{
		{},
		good[:len(good)-1],                    // truncated
		append(good[:len(good):len(good)], 0), // trailing byte
		envelope(99),                          // unknown type code
		append(envelope(binConfirm), 0xff, 0xff, 0xff, 0xff, 0xff), // hostile string length
		append(envelope(binStatusReq), 7),                          // payload on payloadless type (trailing)
	}
	for i, b := range cases {
		if _, err := DecodeBinary(b); err == nil {
			t.Errorf("case %d: malformed envelope %v decoded without error", i, b)
		}
	}
}

// TestDecodeVersionFirst: a payload stamped at any other version stops
// with a *VersionError naming it — before the type code or fields are
// read, so even a payload that is garbage past the version says which
// version it claimed.
func TestDecodeVersionFirst(t *testing.T) {
	for _, v := range []int{0, Version - 1, Version + 1, -62} {
		b := append(appendInt(nil, v), 0xff, 0xff)
		_, err := DecodeBinary(b)
		var ve *VersionError
		if !errors.As(err, &ve) || ve.Got != v {
			t.Fatalf("version %d: err = %v, want *VersionError{%d}", v, err, v)
		}
	}
}

// TestSharedFrameEncodeOnce: Shared returns the identical backing bytes
// to every caller, and they decode to the wrapped message.
func TestSharedFrameEncodeOnce(t *testing.T) {
	sh := NewShared(Message{Type: TypeDelta,
		Delta: &Delta{Epoch: 4, Sigs: []Signature{FromCore(testSig())}}})
	a, err := sh.Frame()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sh.Frame()
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Fatal("second Frame re-encoded instead of sharing the cached bytes")
	}
	m, err := ReadFrame(bytes.NewReader(a))
	if err != nil {
		t.Fatalf("shared frame does not decode: %v", err)
	}
	if !reflect.DeepEqual(m, sh.Message()) {
		t.Fatalf("shared frame decoded wrong: %+v", m)
	}
}
