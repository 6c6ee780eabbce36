package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"strings"
	"testing"

	"github.com/dimmunix/dimmunix/internal/core"
)

// testSig builds a deterministic two-party deadlock signature.
func testSig() *core.Signature {
	a := core.Frame{Class: "com.app.Svc1", Method: "methodA", Line: 10}
	b := core.Frame{Class: "com.app.Svc2", Method: "methodB", Line: 20}
	return &core.Signature{
		Kind: core.DeadlockSig,
		Pairs: []core.SigPair{
			{Outer: core.CallStack{a}, Inner: core.CallStack{a, b}},
			{Outer: core.CallStack{b}, Inner: core.CallStack{b, a}},
		},
	}
}

// TestSignatureRoundTrip: the canonical wire encoding preserves the
// signature key exactly — two devices that detect the same bug produce
// identical wire signatures.
func TestSignatureRoundTrip(t *testing.T) {
	orig := testSig()
	ws := FromCore(orig)
	back, err := ws.ToCore()
	if err != nil {
		t.Fatal(err)
	}
	if back.Key() != orig.Key() {
		t.Fatalf("round-trip changed key: %q -> %q", orig.Key(), back.Key())
	}
	if !reflect.DeepEqual(back.Pairs, orig.Pairs) {
		t.Fatalf("round-trip changed pairs: %+v -> %+v", orig.Pairs, back.Pairs)
	}
}

// TestSignatureDecodeRejects: malformed wire signatures fail cleanly.
func TestSignatureDecodeRejects(t *testing.T) {
	cases := []Signature{
		{Kind: "gridlock", Pairs: []SigPair{{Outer: "A.m:1", Inner: "A.m:1"}}},
		{Kind: "deadlock", Pairs: []SigPair{{Outer: "A.m:1", Inner: "A.m:1"}}}, // 1 pair: invalid deadlock
		{Kind: "deadlock", Pairs: []SigPair{{Outer: "garbage", Inner: "A.m:1"}, {Outer: "B.m:2", Inner: "B.m:2"}}},
	}
	for i, ws := range cases {
		if _, err := ws.ToCore(); err == nil {
			t.Errorf("case %d: malformed signature %+v decoded without error", i, ws)
		}
	}
}

// fixtures is the codec's test table: one valid message of every type
// (all 18), then edge shapes — nil vs empty collections, negative ints,
// empty strings, a high-bit uint64, optional collections present and
// absent. Every round-trip test and both fuzz targets' seeds read it.
func fixtures() []Message {
	ws := FromCore(testSig())
	key := testSig().Key()
	rec := OwnedRecord{Sig: ws, FirstSeen: "phone0", ConfirmedBy: []string{"phone0", "phone1"},
		Armed: true, OwnerSeq: 4, Tenant: "acme"}
	return []Message{
		// One of every type.
		{Type: TypeHello, Hello: &Hello{Device: "phone0",
			Epochs: map[string]uint64{"f00dfeedf00dfeed": 7}, Token: "tok"}},
		{Type: TypeAck, Ack: &Ack{OK: true, Epoch: 9, Gen: "f00dfeedf00dfeed"}},
		{Type: TypeReport, Report: &Report{Sigs: []Signature{ws}}},
		{Type: TypeConfirm, Confirm: &Confirm{Key: key, Confirmations: 2, Armed: true}},
		{Type: TypeDelta, Delta: &Delta{Epoch: 3, Sigs: []Signature{ws, ws}}},
		{Type: TypeStatusReq},
		{Type: TypeStatus, Status: &Status{Epoch: 3, Threshold: 2, Devices: []string{"phone0"},
			Provenance: []SigStatus{{Key: "k", Kind: "deadlock", FirstSeen: "phone0", Confirmations: 2,
				ConfirmedBy: []string{"phone0", "phone1"}, Armed: true, Owner: "hub-a", Tenant: "acme"}},
			Batching: Batching{Batches: 4, Signatures: 9},
			Hub:      "hub-a",
			Cluster: &ClusterStatus{Members: []string{"hub-a", "hub-b"}, Peers: []string{"hub-b"},
				OwnerSeq: 5, Owned: 3, Remote: 2, Forwards: 11, MembershipEpoch: 6,
				Ring: []MemberInfo{{ID: "hub-a", Addr: "10.0.0.1:7676"}, {ID: "hub-b", Down: true}}, Fenced: 1},
			Tenants: []TenantStatus{{Tenant: "acme", Sigs: 1, Armed: 1, Threshold: 2, Devices: 1}}}},
		{Type: TypePeerHello, PeerHello: &PeerHello{Hub: "hub-b", Seq: 4, Addr: "10.0.0.2:7676"}},
		{Type: TypeForwardReport, Forward: &ForwardReport{Hub: "hub-b", Device: "phone0",
			Sigs: []Signature{ws}, Hops: 1, Tenant: "acme"}},
		{Type: TypeForwardConfirm, FwdConfirm: &ForwardConfirm{Device: "phone0",
			Confirm: Confirm{Key: key, Confirmations: 1}, Tenant: "acme"}},
		{Type: TypeArmBroadcast, Arm: &ArmBroadcast{Owner: "hub-a", Seq: 6, Confirmations: 2,
			Sig: ws, Fence: 3, Tenant: "acme"}},
		{Type: TypeMemberUpdate, Member: &MemberUpdate{Epoch: 5,
			Members: []MemberInfo{{ID: "hub-a", Addr: "10.0.0.1:7676"}, {ID: "hub-c", Down: true}}}},
		{Type: TypeHandoff, Handoff: &Handoff{From: "hub-a", Records: []OwnedRecord{rec}}},
		{Type: TypeReplicate, Replicate: &Replicate{Owner: "hub-a", Records: []OwnedRecord{rec,
			{Sig: ws, ConfirmedBy: []string{"phone2"}}}}},
		{Type: TypePing, Ping: &Ping{From: "hub-a", Target: "hub-c", Seq: 17}},
		{Type: TypePingAck, PingAck: &PingAck{From: "hub-b", Target: "hub-c", Seq: 17, OK: true}},
		{Type: TypeLease, Lease: &Lease{From: "hub-a", Epoch: 5, Seq: 2}},
		{Type: TypeLeaseAck, LeaseAck: &LeaseAck{From: "hub-b", Epoch: 6, Seq: 2}},

		// Edge shapes.
		{Type: TypeReport, Report: &Report{Sigs: []Signature{}}},
		{Type: TypeDelta, Delta: &Delta{Epoch: 1<<63 + 9, Sigs: nil}},
		{Type: TypeConfirm, Confirm: &Confirm{Key: "", Confirmations: -7}},
		{Type: TypeHello, Hello: &Hello{Device: "d", Epochs: map[string]uint64{"g1": 3, "g2": 0}}},
		{Type: TypeHello, Hello: &Hello{Device: "d"}},
		{Type: TypeStatus, Status: &Status{
			Devices:    []string{},
			Provenance: []SigStatus{{Key: "k", Kind: "deadlock", ConfirmedBy: nil}},
			Cluster:    &ClusterStatus{Members: []string{"a"}, Owned: -1, Ring: []MemberInfo{}}}},
		{Type: TypeArmBroadcast, Arm: &ArmBroadcast{Owner: "hub-a", Seq: 1, Sig: ws}},
		{Type: TypeForwardReport, Forward: &ForwardReport{Hub: "hub-b", Device: "phone0", Sigs: nil, Hops: -1}},
		{Type: TypeMemberUpdate, Member: &MemberUpdate{Members: nil}},
		{Type: TypeHandoff, Handoff: &Handoff{From: "hub-a", Records: []OwnedRecord{}}},
		{Type: TypeReplicate, Replicate: &Replicate{Owner: "hub-a", Records: nil}},
	}
}

// peerMessage reports whether m is one of the 11 hub-to-hub types.
func peerMessage(t Type) bool {
	switch t {
	case TypePeerHello, TypeForwardReport, TypeForwardConfirm, TypeArmBroadcast,
		TypeMemberUpdate, TypeHandoff, TypeReplicate,
		TypePing, TypePingAck, TypeLease, TypeLeaseAck:
		return true
	}
	return false
}

// TestFixturesCoverEveryType: the table holds every one of the 18
// message types — a new type without a fixture fails here.
func TestFixturesCoverEveryType(t *testing.T) {
	seen := map[Type]bool{}
	for _, m := range fixtures() {
		seen[m.Type] = true
	}
	for c := byte(1); ; c++ {
		typ, ok := codeType(c)
		if !ok {
			if c != 19 {
				t.Fatalf("type codes end at %d, want 18 types", c-1)
			}
			break
		}
		if !seen[typ] {
			t.Errorf("no fixture for %s", typ)
		}
	}
}

// TestFrameRoundTrip: every fixture survives WriteFrame/ReadFrame.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msgs := fixtures()
	for _, m := range msgs {
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatalf("write %s: %v", m.Type, err)
		}
	}
	for _, want := range msgs {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("read %s: %v", want.Type, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip %s:\n got %+v\nwant %+v", want.Type, got, want)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("EOF after last frame, got %v", err)
	}
}

// TestValidateRejects: structurally broken envelopes are refused.
func TestValidateRejects(t *testing.T) {
	cases := []Message{
		{Type: "teleport"},
		{Type: TypeHello}, // missing payload
		{Type: TypeHello, Hello: &Hello{Device: "d"}, Ack: &Ack{OK: true}},                 // two payloads
		{Type: TypeStatusReq, Delta: &Delta{}},                                             // payload on payloadless type
		{Type: TypeDelta, Ack: &Ack{}},                                                     // wrong payload
		{Type: TypePeerHello},                                                              // missing peer payload
		{Type: TypeArmBroadcast, PeerHello: &PeerHello{Hub: "h"}},                          // wrong peer payload
		{Type: TypeForwardReport, Forward: &ForwardReport{Hub: "h"}, Arm: &ArmBroadcast{}}, // two peer payloads
	}
	for i, m := range cases {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: invalid message %+v passed validation", i, m)
		}
	}
}

// TestReadFrameLimits: zero-length and oversized frames are rejected
// before any payload allocation.
func TestReadFrameLimits(t *testing.T) {
	var zero [4]byte
	if _, err := ReadFrame(bytes.NewReader(zero[:])); err == nil {
		t.Error("zero-length frame accepted")
	}
	var huge [4]byte
	binary.BigEndian.PutUint32(huge[:], MaxFrame+1)
	if _, err := ReadFrame(bytes.NewReader(huge[:])); err == nil || !strings.Contains(err.Error(), "exceeds max") {
		t.Errorf("oversized frame: err = %v, want exceeds-max", err)
	}
}

// fuzzStable is both fuzz targets' shared property: a frame that
// decodes must re-encode and decode to the same message (the
// canonical-form property reports rely on), and the re-encoding must
// be deterministic (the property that lets Shared hand one frame to
// every session).
func fuzzStable(t *testing.T, m Message) {
	b, err := EncodeBinary(m)
	if err != nil {
		t.Fatalf("decoded frame does not re-encode: %+v: %v", m, err)
	}
	again, err := DecodeBinary(b)
	if err != nil {
		t.Fatalf("re-encoded frame does not decode: %x: %v", b, err)
	}
	if !reflect.DeepEqual(m, again) {
		t.Fatalf("decode/encode/decode not stable:\n first %+v\n again %+v", m, again)
	}
	if b2, err := EncodeBinary(again); err != nil || !bytes.Equal(b, b2) {
		t.Fatalf("encoding not deterministic (%v):\n  %x\n  %x", err, b, b2)
	}
}

// FuzzWireDecode hammers the frame decoder: arbitrary bytes must never
// panic, and any frame that decodes must be stable under re-encoding.
func FuzzWireDecode(f *testing.F) {
	var buf bytes.Buffer
	for _, m := range fixtures() {
		buf.Reset()
		if err := WriteFrame(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, '{'})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		fuzzStable(t, m)
		// Signatures that arrived in a well-formed frame must also fail
		// or succeed deterministically on the core decode path.
		if m.Type == TypeReport {
			for _, ws := range m.Report.Sigs {
				sig, err := ws.ToCore()
				if err != nil {
					continue
				}
				if FromCore(sig).Kind != ws.Kind {
					t.Fatalf("core round trip changed kind: %+v", ws)
				}
			}
		}
	})
}

// FuzzPeerFrameDecode hammers the peer (hub-to-hub) half of the frame
// decoder the way FuzzWireDecode hammers the device half: arbitrary
// bytes must never panic, decoded peer envelopes must hold exactly one
// payload, the one their type names, and any peer frame that decodes
// must be stable under re-encoding — a hostile or corrupt peer hub must
// not be able to wedge a cluster.
func FuzzPeerFrameDecode(f *testing.F) {
	var buf bytes.Buffer
	for _, m := range fixtures() {
		if !peerMessage(m.Type) {
			continue
		}
		buf.Reset()
		if err := WriteFrame(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// A torn peer frame, and a legacy JSON frame mixing peer and device
	// payloads.
	f.Add([]byte{0, 0, 0, 8, byte(2 * Version), binArmBroadcast, 1})
	f.Add([]byte(`{"v":2,"type":"arm-broadcast","arm":{},"hello":{}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadFrame(bytes.NewReader(data))
		if err != nil || !peerMessage(m.Type) {
			return // device messages are FuzzWireDecode's turf
		}
		// Exactly one payload, and it is the one the type names.
		payloads := map[Type]bool{
			TypePeerHello:      m.PeerHello != nil,
			TypeForwardReport:  m.Forward != nil,
			TypeForwardConfirm: m.FwdConfirm != nil,
			TypeArmBroadcast:   m.Arm != nil,
			TypeMemberUpdate:   m.Member != nil,
			TypeHandoff:        m.Handoff != nil,
			TypeReplicate:      m.Replicate != nil,
			TypePing:           m.Ping != nil,
			TypePingAck:        m.PingAck != nil,
			TypeLease:          m.Lease != nil,
			TypeLeaseAck:       m.LeaseAck != nil,
		}
		for typ, present := range payloads {
			if present != (typ == m.Type) {
				t.Fatalf("peer envelope with mismatched payload survived decode: %+v", m)
			}
		}
		if m.Hello != nil || m.Ack != nil || m.Report != nil || m.Confirm != nil ||
			m.Delta != nil || m.Status != nil {
			t.Fatalf("peer envelope carries a device payload: %+v", m)
		}
		fuzzStable(t, m)
		// A broadcast signature must decode deterministically.
		if m.Type == TypeArmBroadcast {
			if sig, err := m.Arm.Sig.ToCore(); err == nil && FromCore(sig).Kind != m.Arm.Sig.Kind {
				t.Fatalf("broadcast signature core round trip changed kind: %+v", m.Arm.Sig)
			}
		}
	})
}
