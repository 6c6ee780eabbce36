package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"github.com/dimmunix/dimmunix/internal/core"
	"github.com/dimmunix/dimmunix/internal/immunity"
	"github.com/dimmunix/dimmunix/internal/immunity/auth"
	"github.com/dimmunix/dimmunix/internal/immunity/cluster"
	"github.com/dimmunix/dimmunix/internal/immunity/metrics"
	"github.com/dimmunix/dimmunix/internal/vm"
)

const (
	hubCount         = 3
	confirmThreshold = 2
	// Observer devices run live VM processes; observerProcs idle
	// processes each, plus the device under test on observer 0.
	observerProcs = 2
	// armDeadline bounds how long after its due time a signature may
	// take to reach every process on every device before it counts as
	// failed.
	armDeadline = 10 * time.Second
)

// fleetRecorder gathers every fleet span and counter of one episode.
type fleetRecorder struct {
	clock *runClock
	trace bool

	refSigs int // signatures below this id are the reference phase's

	// Reference phase: report frame sent -> its confirm received, split
	// by the confirm's Armed flag. A report below the threshold is only
	// acknowledged; the one that completes it is confirmed after the
	// arming decision, an order of magnitude later, so one median over
	// both would sit on the gap between them.
	pendingMs, armedMs samples

	reports atomic.Int64
	// unexpected counts detections, yields and starvation verdicts in
	// observer processes: none can occur on a never-instantiable history.
	unexpected    atomic.Int64
	publishErrors atomic.Int64

	// Traced only.
	publishUs, genLagMs   samples
	ingestUs              samples
	forwardUs             samples
	broadcastUs           samples
	reportMsgs, deltaMsgs atomic.Int64
	deltaSigs             atomic.Int64
	reportBytes           atomic.Int64
	deltaBytes            atomic.Int64
	installBusyUs         samples
	installIdleUs         samples
	armAt                 stamps
	pubAt                 []stamps // per device: Publish returned
}

// fleetSig is one generated antibody and its schedule.
type fleetSig struct {
	sig *core.Signature
	// due is the offset, from its phase's start, of the detection that
	// completes the confirm threshold: the time-to-immunity clock starts
	// there. dueAt is the same instant on the run clock, set when the
	// generator starts the phase.
	due   time.Duration
	dueAt int64
	// remaining counts the installs still outstanding: one per plain
	// device Service and one per observer process.
	remaining atomic.Int32
	doneAt    atomic.Int64
}

type detection struct {
	at     time.Duration
	sig    int
	device int
}

// schedule is the seeded open-loop traffic: which signature is detected
// by which device, and when. The reference phase's signatures come
// first, then the overload burst's.
type schedule struct {
	sigs       []*fleetSig
	refSigs    int
	detections []detection // offsets from their phase's start
}

func fleetSignature(id int) *core.Signature {
	a := core.CallStack{{Class: fleetClass, Method: "a", Line: id + 1}}
	b := core.CallStack{{Class: fleetClass, Method: "b", Line: id + 1}}
	return &core.Signature{Kind: core.DeadlockSig, Pairs: []core.SigPair{
		{Outer: a, Inner: a}, {Outer: b, Inner: b}}}
}

// newSchedule fills window with signatures at refRate, leaving room for
// the overload burst of overloadSigs at overloadRate. Most signatures
// are detected by exactly the confirm threshold of devices; every
// popularEvery-th is a popular bug that an eighth to a quarter of the
// plain devices hit within popularSpread.
func newSchedule(rng *rand.Rand, window time.Duration) (*schedule, error) {
	const (
		popularEvery  = 25
		secondGap     = 2 * time.Millisecond
		popularSpread = 50 * time.Millisecond
	)
	refSigs := int((window.Seconds() - float64(overloadSigs)/overloadRate) * refRate)
	if refSigs < 1 {
		return nil, fmt.Errorf("a %s fleet window leaves no time for the reference rate", window)
	}
	s := &schedule{refSigs: refSigs}
	phase := func(n int, rate float64) {
		for j := 0; j < n; j++ {
			id := len(s.sigs)
			first := time.Duration(float64(j) / rate * float64(time.Second))
			count := confirmThreshold
			if id%popularEvery == popularEvery-1 {
				// The mix is fixed by the workload; the seed picks the
				// devices and the timing.
				count = plainDevices/8 + (id/popularEvery*7)%(plainDevices/8+1)
			}
			devs := rng.Perm(plainDevices)[:count]
			at := []time.Duration{first, first + time.Duration(rng.Int63n(int64(secondGap)))}
			for len(at) < count {
				at = append(at, first+time.Duration(rng.Int63n(int64(popularSpread))))
			}
			sort.Slice(at, func(a, b int) bool { return at[a] < at[b] })
			for i, d := range devs {
				s.detections = append(s.detections, detection{at: at[i], sig: id, device: d})
			}
			s.sigs = append(s.sigs, &fleetSig{sig: fleetSignature(id), due: at[confirmThreshold-1]})
		}
	}
	phase(refSigs, refRate)
	phase(overloadSigs, overloadRate)
	sort.SliceStable(s.detections, func(a, b int) bool { return s.detections[a].at < s.detections[b].at })
	return s, nil
}

// fleetDevice is one phone: its Service, its hub session and, for
// observers, its live processes.
type fleetDevice struct {
	id      string
	hub     int
	tls     bool
	svc     *immunity.Service
	client  *immunity.ExchangeClient
	spans   *deviceSpans
	cancel  func()
	procs   []*observerProc
	connect time.Duration
}

// observerProc is one live process whose core's install events the
// benchmark consumes.
type observerProc struct {
	proc *vm.Process
	busy bool
	done chan struct{}
}

// fleet is the federated topology: hubs wired the way a served daemon
// wires them (registry, rates sampler, SLO evaluator), peer links over
// loopback with probe-based failure detection and the quorum lease,
// and devices attached round-robin.
type fleet struct {
	rec     *fleetRecorder
	sched   *schedule
	hubs    []*immunity.Exchange
	nodes   []*cluster.Node
	rates   []*metrics.Rates
	servers []*immunity.ExchangeServer
	devices []*fleetDevice // plainDevices plain devices, then observers
	// perSig is how many installs complete one signature.
	perSig int32
}

func newHub(verifier auth.Verifier) (*immunity.Exchange, *metrics.Rates, error) {
	reg := metrics.NewRegistry()
	rates := metrics.NewRates(reg, metrics.RatesConfig{Interval: time.Second})
	for _, name := range []string{
		"immunity_hub_reports_total",
		"immunity_hub_confirmations_total",
		"immunity_hub_armed_total",
		"immunity_hub_echoes_total",
		"immunity_hub_forwards_total",
		"immunity_hub_remote_installs_total",
		"immunity_hub_admission_shed_total",
		"immunity_cluster_peer_forwards_total",
		"immunity_cluster_applied_total",
	} {
		rates.TrackCounter(name)
	}
	rates.TrackHistogram("immunity_hub_report_seconds")
	rates.TrackHistogram("immunity_hub_report_handle_seconds")
	metrics.NewEvaluator(reg, rates, []metrics.SLO{
		{Name: "report-latency", QuantileOf: "immunity_hub_report_seconds", Target: 0.025},
		{Name: "shed-zero", RateOf: "immunity_hub_admission_shed_total", Target: 0},
		{Name: "push-backlog", GaugeOf: "immunity_hub_push_pending", Target: 1024},
		{Name: "forward-backlog", GaugeOf: "immunity_cluster_forward_pending", Target: 1024},
	})
	hub, err := immunity.NewExchange(confirmThreshold,
		immunity.WithMetricsRegistry(reg), immunity.WithAuthVerifier(verifier))
	if err != nil {
		return nil, nil, err
	}
	rates.Start()
	return hub, rates, nil
}

// newFleet builds the topology and waits until every hub holds its
// quorum lease, so arming is live before the first detection. Observer
// 0 is the device under test: its Service is dut's and dut's immune
// process is its busy process.
func newFleet(dut *deviceRig, sched *schedule, rec *fleetRecorder) (f *fleet, err error) {
	f = &fleet{rec: rec, sched: sched}
	defer func() {
		if err != nil {
			f.close()
			f = nil
		}
	}()
	key := []byte("perfbench-token-key")
	verifier := auth.NewStatic(key)
	for i := 0; i < hubCount; i++ {
		hub, rates, err := newHub(verifier)
		if err != nil {
			return f, err
		}
		f.hubs = append(f.hubs, hub)
		f.rates = append(f.rates, rates)
	}
	for i, hub := range f.hubs {
		var peers []cluster.Member
		for j, other := range f.hubs {
			if j == i {
				continue
			}
			var t immunity.Transport = immunity.NewLoopback(other)
			if rec.trace {
				t = &peerTransport{inner: t, rec: rec}
			}
			peers = append(peers, cluster.Member{ID: hubName(j), Transport: t})
		}
		node, err := cluster.New(cluster.Config{Self: hubName(i), Hub: hub, Peers: peers,
			FailoverAfter: time.Second, Metrics: hub.Metrics()})
		if err != nil {
			return f, err
		}
		f.nodes = append(f.nodes, node)
	}
	if err := f.waitLeases(10 * time.Second); err != nil {
		return f, err
	}

	// nproc observers connect over TLS, each with a loopback twin on its
	// hub; the pairs sit on hubs 0 and 1.
	tlsObs := min(runtime.NumCPU(), 2)
	ca, err := auth.NewCA("perfbench")
	if err != nil {
		return f, err
	}
	addrs := make([]string, tlsObs)
	for i := range addrs {
		cert, err := ca.IssueTLS(hubName(i), []string{"127.0.0.1", "localhost"})
		if err != nil {
			return f, err
		}
		srv, err := immunity.ServeTCP(f.hubs[i], "127.0.0.1:0",
			immunity.WithServeTLS(auth.ServerConfig(cert, nil)))
		if err != nil {
			return f, err
		}
		f.servers = append(f.servers, srv)
		addrs[i] = srv.Addr()
	}

	n := len(sched.sigs)
	total := plainDevices + 2*tlsObs
	rec.pubAt = make([]stamps, plainDevices)
	for i := 0; i < total; i++ {
		d := &fleetDevice{id: fmt.Sprintf("phone%03d", i), hub: i % hubCount}
		obs := i - plainDevices
		if obs >= 0 {
			d.hub = obs / 2
			d.tls = obs%2 == 1
		}
		d.spans = &deviceSpans{clock: rec.clock, trace: rec.trace, reportAt: newStamps(n)}
		if rec.trace {
			d.spans.deltaAt, d.spans.applyAt = newStamps(n), newStamps(n)
		}
		if obs == 0 {
			d.svc = dut.svc
		} else if d.svc, err = immunity.NewService(d.id, nil); err != nil {
			return f, err
		}
		f.devices = append(f.devices, d)
		if i < plainDevices && rec.trace {
			rec.pubAt[i] = newStamps(n)
		}
		if obs >= 0 {
			var busy *vm.Process
			if obs == 0 {
				busy = dut.immune.proc
			}
			if err := f.startObserver(d, busy); err != nil {
				return f, err
			}
		} else {
			f.perSig++
			spans := d.spans
			d.cancel = d.svc.Subscribe("perfbench", 0, func(_ uint64, sigs []*core.Signature) {
				now := rec.clock.now()
				for _, s := range sigs {
					if id, ok := coreSigID(s.Pairs); ok {
						if spans.applyAt != nil {
							spans.applyAt.first(id, now)
						}
						f.installed(id, now)
					}
				}
			})
		}
		var t immunity.Transport
		if d.tls {
			t = immunity.NewTCPTransport(addrs[d.hub],
				immunity.WithDialTLS(auth.ClientConfig(ca.Pool(), "localhost")))
		} else {
			t = immunity.NewLoopback(f.hubs[d.hub])
		}
		tok, err := auth.Mint(key, auth.Claims{Device: d.id})
		if err != nil {
			return f, err
		}
		start := time.Now()
		d.client, err = immunity.Connect(&tracedTransport{inner: t, spans: d.spans, rec: rec}, d.id, d.svc,
			immunity.WithClientToken(tok))
		d.connect = time.Since(start)
		if err != nil {
			return f, fmt.Errorf("connect %s: %w", d.id, err)
		}
	}
	for _, s := range sched.sigs {
		s.remaining.Store(f.perSig)
	}
	return f, nil
}

func hubName(i int) string { return fmt.Sprintf("hub%d", i) }

func (f *fleet) waitLeases(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		all := true
		for _, n := range f.nodes {
			if held, _, _ := n.LeaseStats(); !held {
				all = false
			}
		}
		if all {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("hubs did not acquire their quorum leases within %s", timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// startObserver forks the observer's idle processes (and adopts busy,
// the device under test, on observer 0) and consumes each
// process's core events: installs complete signatures, anything else
// the workload cannot produce is a failure.
func (f *fleet) startObserver(d *fleetDevice, busy *vm.Process) error {
	if busy != nil {
		d.procs = append(d.procs, &observerProc{proc: busy, busy: true})
	}
	zygote := vm.NewZygote(vm.WithDimmunix(true), vm.WithSignatureBus(d.svc),
		vm.WithCoreOptions(core.WithEventBuffer(eventBuffer)))
	for i := 0; i < observerProcs; i++ {
		p, err := zygote.Fork(fmt.Sprintf("%s/app%d", d.id, i))
		if err != nil {
			return err
		}
		d.procs = append(d.procs, &observerProc{proc: p})
	}
	spans := d.spans
	if f.rec.trace {
		d.cancel = d.svc.Subscribe("perfbench", 0, func(_ uint64, sigs []*core.Signature) {
			now := f.rec.clock.now()
			for _, s := range sigs {
				if id, ok := coreSigID(s.Pairs); ok {
					spans.applyAt.first(id, now)
				}
			}
		})
	}
	for _, op := range d.procs {
		f.perSig++
		op.done = make(chan struct{})
		go f.consumeEvents(op, spans)
	}
	return nil
}

const eventBuffer = 4096

func (f *fleet) consumeEvents(op *observerProc, spans *deviceSpans) {
	defer close(op.done)
	for ev := range op.proc.Dimmunix().Events() {
		switch ev.Kind {
		case core.EventSignatureInstalled:
			id, ok := coreSigID(ev.Sig.Pairs)
			if !ok {
				continue
			}
			now := f.rec.clock.now()
			f.installed(id, now)
			if f.rec.trace {
				if at := spans.applyAt.get(id); at != 0 {
					d := float64(now-at) / 1e3
					if op.busy {
						f.rec.installBusyUs.add(d)
					} else {
						f.rec.installIdleUs.add(d)
					}
				}
			}
		case core.EventSignatureLoaded:
		default:
			f.rec.unexpected.Add(1)
		}
	}
}

func (f *fleet) installed(id int, now int64) {
	if id < 0 || id >= len(f.sched.sigs) {
		return
	}
	s := f.sched.sigs[id]
	if s.remaining.Add(-1) == 0 {
		s.doneAt.Store(now)
	}
}

// generate runs the open-loop generator: every detection is a Publish
// into the detecting device's Service at its due time, whatever the
// fleet's backlog. The overload burst runs last, after the reference
// phase drained and a collection, so it measures the fleet's capacity
// from the same state every run.
func (f *fleet) generate() {
	f.publish(0, f.sched.refSigs)
	f.drain()
	runtime.GC()
	f.publish(f.sched.refSigs, len(f.sched.sigs))
}

// publish runs the detections of signatures lo..hi-1, one phase,
// starting now. Each signature's clock starts at the due time of the
// detection that completes its threshold.
func (f *fleet) publish(lo, hi int) {
	base := f.rec.clock.now() + int64(20*time.Millisecond)
	for _, s := range f.sched.sigs[lo:hi] {
		s.dueAt = base + int64(s.due)
	}
	for _, d := range f.sched.detections {
		if d.sig < lo || d.sig >= hi {
			continue
		}
		due := base + int64(d.at)
		if wait := due - f.rec.clock.now(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		t0 := f.rec.clock.now()
		_, _, err := f.devices[d.device].svc.Publish("local", f.sched.sigs[d.sig].sig)
		if err != nil {
			f.rec.publishErrors.Add(1)
		}
		if f.rec.trace {
			t1 := f.rec.clock.now()
			f.rec.genLagMs.add(float64(t0-due) / 1e6)
			f.rec.publishUs.add(float64(t1-t0) / 1e3)
			f.rec.pubAt[d.device].first(d.sig, t1)
		}
	}
}

// drain waits until every published signature is installed everywhere
// or past its deadline, and returns how many missed the deadline.
func (f *fleet) drain() int {
	var last int64
	for _, s := range f.sched.sigs {
		if s.dueAt != 0 {
			last = max(last, s.dueAt+int64(armDeadline))
		}
	}
	for {
		pending := 0
		for _, s := range f.sched.sigs {
			if s.dueAt != 0 && s.remaining.Load() > 0 {
				pending++
			}
		}
		if pending == 0 || f.rec.clock.now() > last {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	missed := 0
	for _, s := range f.sched.sigs {
		if done := s.doneAt.Load(); s.dueAt != 0 && (done == 0 || done-s.dueAt > int64(armDeadline)) {
			missed++
		}
	}
	return missed
}

// latencies returns time-to-fleet-immunity per reference-phase
// signature, in ms, for the signatures that completed.
func (f *fleet) latencies() []float64 {
	var out []float64
	for _, s := range f.sched.sigs[:f.sched.refSigs] {
		if done := s.doneAt.Load(); done != 0 {
			out = append(out, float64(done-s.dueAt)/1e6)
		}
	}
	return out
}

// check verifies the fleet's invariants at quiescence. It returns one
// message per violation and the number of failed operations among them:
// shed reports, dropped events, refused sessions, failed publishes and
// unexpected detections or yields.
func (f *fleet) check() (bad []string, failed int64) {
	want := len(f.sched.sigs)
	// Arm-broadcasts may still be in flight to the last hub when the
	// last device installed; give the hubs a moment to agree.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		agree := true
		for _, h := range f.hubs {
			if h.ArmedCount() != want {
				agree = false
			}
		}
		if agree {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i, h := range f.hubs {
		st := h.Stats()
		armed := 0
		for _, p := range h.Provenance() {
			if !p.Armed {
				continue
			}
			armed++
			if _, ok := sigIDOf(p.Key); !ok {
				bad = append(bad, fmt.Sprintf("%s armed a signature nobody published: %s", hubName(i), p.Key))
			}
			if p.Owner == hubName(i) && p.Confirmations < confirmThreshold {
				bad = append(bad, fmt.Sprintf("%s armed %s at %d confirmations", hubName(i), p.Key, p.Confirmations))
			}
		}
		if uint64(armed) != st.Epoch {
			bad = append(bad, fmt.Sprintf("%s epoch %d != armed count %d", hubName(i), st.Epoch, armed))
		}
		if armed != want {
			bad = append(bad, fmt.Sprintf("%s holds %d armed signatures, published %d", hubName(i), armed, want))
		}
		if st.AdmissionShed != 0 {
			bad = append(bad, fmt.Sprintf("%s shed %d reports", hubName(i), st.AdmissionShed))
			failed += int64(st.AdmissionShed)
		}
		if st.Fenced != 0 {
			bad = append(bad, fmt.Sprintf("%s fenced %d arm-broadcasts", hubName(i), st.Fenced))
		}
	}
	for _, d := range f.devices {
		if got := d.svc.Epoch(); got != uint64(want) {
			bad = append(bad, fmt.Sprintf("device %s Service holds %d signatures, published %d", d.id, got, want))
		}
		if err := d.client.Err(); err != nil {
			bad = append(bad, fmt.Sprintf("device %s session refused: %v", d.id, err))
			failed++
		}
		for _, op := range d.procs {
			st := op.proc.Dimmunix().Stats()
			if st.EventsDropped != 0 {
				bad = append(bad, fmt.Sprintf("process %s dropped %d events", op.proc.Name(), st.EventsDropped))
				failed += int64(st.EventsDropped)
			}
			if st.SignaturesInstalled < uint64(want) {
				bad = append(bad, fmt.Sprintf("process %s installed %d of %d signatures", op.proc.Name(), st.SignaturesInstalled, want))
			}
		}
	}
	if n := f.rec.unexpected.Load(); n != 0 {
		bad = append(bad, fmt.Sprintf("%d detection/yield events on never-instantiable signatures", n))
		failed += n
	}
	if n := f.rec.publishErrors.Load(); n != 0 {
		bad = append(bad, fmt.Sprintf("%d publishes failed", n))
		failed += n
	}
	return bad, failed
}

// close tears the topology down: devices first, then hubs, waiting for
// every event consumer it started. The device under test's threads must
// have exited: its process is killed here too.
func (f *fleet) close() {
	for _, d := range f.devices {
		if d.client != nil {
			d.client.Close()
		}
		if d.cancel != nil {
			d.cancel()
		}
		for _, op := range d.procs {
			op.proc.Kill()
			if op.done != nil {
				<-op.done
			}
		}
		if d.svc != nil {
			d.svc.Close()
		}
	}
	for _, s := range f.servers {
		s.Close()
	}
	for _, n := range f.nodes {
		n.Close()
	}
	for _, h := range f.hubs {
		h.Close()
	}
	for _, r := range f.rates {
		r.Stop()
	}
}
