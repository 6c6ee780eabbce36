package main

import (
	"math"
	rtmetrics "runtime/metrics"
	"strings"
	"time"
)

// layers holds per-layer observations by metric name: span samples, or
// one figure per episode. A traced run pools them over its episodes and
// reports each metric's median, or its tail for a _p99 metric, so every
// per-layer figure rests on all the episodes.
type layers map[string]*layerSamples

type layerSamples struct {
	unit string
	v    []float64
}

// add records observations of metric name, skipping undefined ones (a
// ratio over nothing), which leave the metric without samples.
func (l layers) add(name, unit string, v ...float64) {
	s := l[name]
	if s == nil {
		s = &layerSamples{unit: unit}
		l[name] = s
	}
	for _, x := range v {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			s.v = append(s.v, x)
		}
	}
}

func (l layers) pool(other layers) {
	for name, s := range other {
		l.add(name, s.unit, s.v...)
	}
}

func (l layers) metrics() map[string]metric {
	m := make(map[string]metric, len(l))
	for name, s := range l {
		v := median(s.v)
		if strings.HasSuffix(name, "_p99") {
			v = tailOf(s.v).Value
		}
		m[name] = metric{v, s.unit}
	}
	return m
}

// perLayer takes one traced episode's per-layer measurements. It runs
// after the fleet drained and a collection, so the allocation and replay
// measurements see a quiet process.
func perLayer(p *platform, ep *episode, load *deviceLoad) (layers, error) {
	f, rig, rec, dev := p.fleet, p.rig, p.fleet.rec, ep.dev
	l := layers{}

	// core and vm, on the device under test.
	runway := gcRunway()
	ia, ib := allocsPerOp(rig.immune)
	va, vb := allocsPerOp(rig.vanilla)
	rr, err := replay(load, 1<<18)
	if err != nil {
		return nil, err
	}
	c := rig.immune.proc.Dimmunix()
	vs := dev.vanillaStats
	l.add("core.enter_ns", "ns", rr.enterNs)
	l.add("core.intern_ns", "ns", rr.internNs)
	l.add("core.intern_allocs", "allocs/op", rr.internAllocs)
	l.add("core.scaling_2v1", "ratio", rr.scaling2v1)
	l.add("core.match_ns", "ns", rr.matchNs)
	l.add("core.fast_path_ratio", "ratio", dev.fastRatio)
	l.add("core.avoidance_checks_per_op", "checks/op", dev.checksPerOp)
	l.add("core.allocs_per_op", "allocs/op", ia-va)
	l.add("core.bytes_per_op", "B/op", ib-vb)
	// Collections per million enters, derived rather than counted: the
	// extra bytes a million enters allocate over the runway the GC
	// leaves between the live heap and its goal. Over a slice, NumGC
	// would read 0: a slice allocates far less than one runway of the
	// fleet's heap.
	l.add("core.gc_per_mop", "gc/Mop", (ib-vb)*1e6/runway)
	l.add("core.positions", "count", float64(c.PositionCount()))
	l.add("core.mem_bytes", "B", float64(c.MemStats().Bytes))
	l.add("core.install_us_busy", "us", rec.installBusyUs.values()...)
	l.add("core.install_us_idle", "us", rec.installIdleUs.values()...)
	l.add("vm.vanilla_ns_per_op", "ns", dev.vanillaNs...)
	enters := float64(vs.ThinEnters + vs.FatEnters + vs.RecursiveEnters)
	l.add("vm.fat_enter_ratio", "ratio", float64(vs.FatEnters)/enters)
	l.add("vm.inflations", "count", float64(vs.Inflations))

	// immunity, cluster, wire and auth, from the fleet's spans.
	l.add("immunity.publish_us", "us", rec.publishUs.values()...)
	l.add("gen.lag_ms_p99", "ms", rec.genLagMs.values()...)
	ingest := rec.ingestUs.values()
	l.add("immunity.hub_ingest_us_p50", "us", ingest...)
	l.add("immunity.hub_ingest_us_p99", "us", ingest...)
	l.add("cluster.forward_us", "us", rec.forwardUs.values()...)
	l.add("cluster.broadcast_us", "us", rec.broadcastUs.values()...)

	var reports, echoes, confirms, forwards, fenced uint64
	for _, h := range f.hubs {
		st := h.Stats()
		reports += st.Reports
		echoes += st.Echoes
		confirms += st.Confirmations
		forwards += st.Forwards
		fenced += st.Fenced
	}
	nsigs := float64(len(f.sched.sigs))
	l.add("cluster.forwards_per_sig", "count", float64(forwards)/nsigs)
	l.add("cluster.fenced", "count", float64(fenced))
	l.add("immunity.echo_ratio", "ratio", float64(echoes)/float64(reports))
	l.add("immunity.confirm_ratio", "ratio", float64(confirms)/float64(reports))
	l.add("immunity.delta_sigs_per_batch", "sigs/batch", float64(rec.deltaSigs.Load())/float64(rec.deltaMsgs.Load()))
	l.add("wire.report_bytes", "B", float64(rec.reportBytes.Load())/float64(rec.reportMsgs.Load()))
	l.add("wire.delta_bytes", "B", float64(rec.deltaBytes.Load())/float64(rec.deltaMsgs.Load()))

	var push, apply, wait, tlsExtra, connect []float64
	for i, d := range f.devices {
		for id := range f.sched.sigs {
			delta, applied := d.spans.deltaAt.get(id), d.spans.applyAt.get(id)
			if arm := rec.armAt.get(id); delta != 0 && arm != 0 {
				push = append(push, float64(delta-arm)/1e3)
			}
			if delta != 0 && applied != 0 {
				apply = append(apply, float64(applied-delta)/1e3)
			}
		}
		if i < plainDevices {
			continue
		}
		if d.tls {
			connect = append(connect, float64(d.connect)/float64(time.Millisecond))
			twin := f.devices[i-1] // the loopback observer on the same hub
			for id := range f.sched.sigs {
				a, b := d.spans.deltaAt.get(id), twin.spans.deltaAt.get(id)
				if a != 0 && b != 0 {
					tlsExtra = append(tlsExtra, float64(a-b)/1e3)
				}
			}
		}
	}
	for _, det := range f.sched.detections {
		pub := rec.pubAt[det.device].get(det.sig)
		sent := f.devices[det.device].spans.reportAt.get(det.sig)
		if pub != 0 && sent != 0 {
			wait = append(wait, float64(sent-pub)/1e3)
		}
	}
	l.add("immunity.hub_push_us_p50", "us", push...)
	l.add("immunity.hub_push_us_p99", "us", push...)
	l.add("immunity.device_apply_us", "us", apply...)
	l.add("immunity.client_report_wait_us", "us", wait...)
	l.add("wire.tls_extra_us", "us", tlsExtra...)
	l.add("auth.connect_ms", "ms", connect...)
	// The report tail spreads too widely between seeds to carry a
	// regression bound; it is reported here, unbounded.
	l.add("immunity.report_ms_p99", "ms", append(ep.pending, ep.armed...)...)

	// The traced run's own end-to-end figures, defined as the untraced
	// run's: the difference is the tracing overhead.
	l.add("trace.syncs_per_s", "syncs/s", median(dev.syncsPerS))
	l.add("trace.immunity_ms_p50", "ms", ep.immunity...)
	return l, nil
}

// gcRunway is how many bytes the program may allocate before the GC
// starts its next cycle: the heap goal minus the live heap.
func gcRunway() float64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/goal:bytes"}, {Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(s)
	return float64(s[0].Value.Uint64()) - float64(s[1].Value.Uint64())
}
