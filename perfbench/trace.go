package main

import (
	"strings"
	"sync/atomic"
	"time"

	"github.com/dimmunix/dimmunix/internal/core"
	"github.com/dimmunix/dimmunix/internal/immunity"
	"github.com/dimmunix/dimmunix/internal/immunity/wire"
)

// Every fleet signature names frames of fleetClass whose line is the
// signature's id plus one, so any layer's copy of a signature maps back
// to its generator entry without a string-keyed lookup.
const fleetClass = "com.perfbench.fleet.Bug"

// sigIDOf parses the signature id out of any string that embeds a
// fleet frame — an outer-stack key ("com.perfbench.fleet.Bug.a:17") or
// a signature key — giving 16 for line 17; ok is false when there is no
// fleet frame.
func sigIDOf(s string) (int, bool) {
	i := strings.Index(s, fleetClass+".")
	if i < 0 {
		return 0, false
	}
	j := strings.IndexByte(s[i:], ':')
	if j < 0 {
		return 0, false
	}
	line := 0
	for _, c := range s[i+j+1:] {
		if c < '0' || c > '9' {
			break
		}
		line = line*10 + int(c-'0')
	}
	if line < 1 {
		return 0, false
	}
	return line - 1, true
}

// coreSigID is sigIDOf for a core signature's pairs, read straight from
// the first frame.
func coreSigID(pairs []core.SigPair) (int, bool) {
	if len(pairs) == 0 || len(pairs[0].Outer) == 0 {
		return 0, false
	}
	f := pairs[0].Outer[0]
	if f.Class != fleetClass || f.Line < 1 {
		return 0, false
	}
	return f.Line - 1, true
}

func wireSigID(s wire.Signature) (int, bool) {
	for _, p := range s.Pairs {
		if id, ok := sigIDOf(p.Outer); ok {
			return id, true
		}
	}
	return 0, false
}

// stamps is one timestamp slot per fleet signature, in nanoseconds since
// the run's epoch (0 = not seen). The first writer wins.
type stamps []atomic.Int64

func newStamps(n int) stamps { return make(stamps, n) }

func (s stamps) first(id int, at int64) {
	if id >= 0 && id < len(s) {
		s[id].CompareAndSwap(0, at)
	}
}

func (s stamps) earliest(id int, at int64) {
	if id < 0 || id >= len(s) {
		return
	}
	for {
		cur := s[id].Load()
		if cur != 0 && cur <= at {
			return
		}
		if s[id].CompareAndSwap(cur, at) {
			return
		}
	}
}

func (s stamps) get(id int) int64 { return s[id].Load() }

// deviceSpans is the benchmark's record of one device session, kept by
// tracedTransport. reportAt drives the end-to-end report latency and is
// always filled; deltaAt and applyAt only in a traced run.
type deviceSpans struct {
	clock *runClock
	trace bool

	reportAt stamps // report frame carrying the signature sent
	deltaAt  stamps // first delta carrying the signature received
	applyAt  stamps // Service subscription callback delivered it
}

// tracedTransport wraps a device's Transport: it stamps report frames
// as they leave, confirms and deltas as they arrive, and — traced —
// times the synchronous part of every Send, which over loopback is the
// hub's whole ingest-decide-forward path.
type tracedTransport struct {
	inner immunity.Transport
	spans *deviceSpans
	rec   *fleetRecorder
}

func (t *tracedTransport) Dial(recv func(wire.Message), down func(err error)) (immunity.Session, error) {
	sess, err := t.inner.Dial(func(m wire.Message) {
		t.received(m)
		recv(m)
	}, down)
	if err != nil {
		return nil, err
	}
	return &tracedSession{inner: sess, t: t}, nil
}

func (t *tracedTransport) received(m wire.Message) {
	sp := t.spans
	now := sp.clock.now()
	switch m.Type {
	case wire.TypeConfirm:
		if m.Confirm == nil {
			return
		}
		if id, ok := sigIDOf(m.Confirm.Key); ok {
			if sent := sp.reportAt.get(id); sent != 0 && id < t.rec.refSigs {
				ms := &t.rec.pendingMs
				if m.Confirm.Armed {
					ms = &t.rec.armedMs
				}
				ms.add(float64(now-sent) / 1e6)
			}
		}
	case wire.TypeDelta:
		if !sp.trace || m.Delta == nil {
			return
		}
		t.rec.deltaMsgs.Add(1)
		t.rec.deltaSigs.Add(int64(len(m.Delta.Sigs)))
		t.rec.deltaBytes.Add(int64(encodedLen(m)))
		for _, s := range m.Delta.Sigs {
			if id, ok := wireSigID(s); ok {
				sp.deltaAt.first(id, now)
			}
		}
	}
}

type tracedSession struct {
	inner immunity.Session
	t     *tracedTransport
}

func (s *tracedSession) Send(m wire.Message) error {
	if m.Type != wire.TypeReport || m.Report == nil {
		return s.inner.Send(m)
	}
	sp := s.t.spans
	start := sp.clock.now()
	for _, ws := range m.Report.Sigs {
		if id, ok := wireSigID(ws); ok {
			sp.reportAt.first(id, start)
		}
	}
	s.t.rec.reports.Add(int64(len(m.Report.Sigs)))
	err := s.inner.Send(m)
	if sp.trace {
		s.t.rec.ingestUs.add(float64(sp.clock.now()-start) / 1e3)
		s.t.rec.reportMsgs.Add(1)
		s.t.rec.reportBytes.Add(int64(encodedLen(m)))
	}
	return err
}

func (s *tracedSession) Close() error { return s.inner.Close() }

// peerTransport wraps a hub-to-hub link (traced runs only). Over
// loopback both directions run the receiving hub's handler
// synchronously: a Send carries a forwarded report to the owner, and
// the recv callback carries the owner's arm-broadcast into the
// subscribing hub, so each span is the receiving hub's whole cost.
type peerTransport struct {
	inner immunity.Transport
	rec   *fleetRecorder
}

func (p *peerTransport) Dial(recv func(wire.Message), down func(err error)) (immunity.Session, error) {
	rec := p.rec
	sess, err := p.inner.Dial(func(m wire.Message) {
		if m.Type != wire.TypeArmBroadcast || m.Arm == nil {
			recv(m)
			return
		}
		start := rec.clock.now()
		if id, ok := wireSigID(m.Arm.Sig); ok {
			rec.armAt.earliest(id, start)
		}
		recv(m)
		rec.broadcastUs.add(float64(rec.clock.now()-start) / 1e3)
	}, down)
	if err != nil {
		return nil, err
	}
	return &peerSession{inner: sess, rec: rec}, nil
}

type peerSession struct {
	inner immunity.Session
	rec   *fleetRecorder
}

func (s *peerSession) Send(m wire.Message) error {
	if m.Type != wire.TypeForwardReport {
		return s.inner.Send(m)
	}
	start := s.rec.clock.now()
	err := s.inner.Send(m)
	s.rec.forwardUs.add(float64(s.rec.clock.now()-start) / 1e3)
	return err
}

func (s *peerSession) Close() error { return s.inner.Close() }

func encodedLen(m wire.Message) int {
	b, err := wire.EncodeBinary(m)
	if err != nil {
		return 0
	}
	return len(b)
}

// runClock gives every span one time base.
type runClock struct{ epoch time.Time }

func (c *runClock) now() int64 { return int64(time.Since(c.epoch)) }
