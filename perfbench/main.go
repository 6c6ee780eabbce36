// Command perfbench is the repository's benchmark. One run builds a
// whole platform — a device under test running a seeded monitorenter
// stream on immune and vanilla processes, inside a federated fleet of
// phones, hubs and observers — once per episode, measures each for an
// equal share of --seconds, checks its outputs, and prints every metric
// by name with its unit. The last line of standard output is the JSON result.
//
//	perfbench --workload apps-mix --seed 1 --seconds 30 --trace 0
//
// --trace 1 adds the benchmark-side spans and per-layer metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one input set: the device under test's stream. Every
// workload runs the same fleet and traffic.
type workload struct {
	name string
	// load builds the device stream for the given thread count.
	load func(rng *rand.Rand, threads int) *deviceLoad
	// threads is the device under test's load threads; 0 means nproc.
	threads int
}

const (
	plainDevices = 128 // plain fleet devices, the detectors
	// refRate is the open-loop reference rate of the latency metrics,
	// signatures/s.
	refRate = 50
	// The overload burst of overloadSigs signatures arrives at
	// overloadRate, well beyond what the fleet arms, for
	// sustained_sigs_per_s.
	overloadSigs = 256
	overloadRate = 1000
)

var workloads = []workload{
	{name: "apps-mix", load: appsMixLoad},
	{name: "deep-history", load: deepHistoryLoad},
	{name: "fleet-arm", load: appsMixLoad, threads: 1},
}

// episodes is how many times a run builds its platform and measures it,
// each on an equal share of --seconds: a quarter for the device window,
// the rest for the fleet's.
const episodes = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: apps-mix, deep-history or fleet-arm")
	seed := fs.Int64("seed", 1, "seed for every schedule, site, lock and detector choice")
	seconds := fs.Float64("seconds", 10, "measured window, seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload apps-mix|deep-history|fleet-arm, --seconds > 0, --trace 0|1\n")
		return 2
	}
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	res, err := runWorkload(*w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", b)
	return 0
}

// metadata is the machine header printed ahead of every result.
func metadata(w workload, seed int64, trace bool) map[string]any {
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"rev":        os.Getenv("PERFBENCH_REV"),
		"seed":       seed,
		"workload":   w.name,
		"trace":      trace,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// platform is one built instance of everything a run measures.
type platform struct {
	rig   *deviceRig
	fleet *fleet
}

func buildPlatform(load *deviceLoad, sched *schedule, rec *fleetRecorder) (*platform, error) {
	rig, err := newDeviceRig(load)
	if err != nil {
		return nil, err
	}
	f, err := newFleet(rig, sched, rec)
	if err != nil {
		rig.close()
		return nil, err
	}
	return &platform{rig: rig, fleet: f}, nil
}

func (p *platform) close() {
	p.rig.stopThreads()
	p.fleet.close()
	p.rig.close()
}

// episode is one independent repetition of the experiment on a freshly
// built platform.
type episode struct {
	setupS    float64
	dev       *deviceResult
	heapMB    float64
	immunity  []float64 // ms per reference-phase signature
	pending   []float64 // ms per reference-phase report below the threshold
	armed     []float64 // ms per reference-phase report confirmed armed
	burstS    float64   // the overload burst's arming time
	gcCycles  uint32
	bad       []string
	attempted int64
	failed    int64
	layers    layers // traced runs only
}

// runEpisode builds a platform, measures it and checks its outputs;
// traced, it also takes the per-layer measurements.
// The device window comes first: the device under test alternates
// immune and vanilla slices for devWindow. The fleet window follows:
// the generator publishes the reference phase and the overload burst
// while one thread of the immune process runs its stream until the
// generator returns (the busy observer), so every install lands on a
// busy engine. A collection before each window starts the GC pacer from
// the same heap every time.
func runEpisode(load *deviceLoad, sched *schedule, devWindow time.Duration, trace bool) (*episode, error) {
	rec := &fleetRecorder{clock: &runClock{epoch: time.Now()}, trace: trace, refSigs: sched.refSigs}
	if trace {
		rec.armAt = newStamps(len(sched.sigs))
	}
	built := time.Now()
	p, err := buildPlatform(load, sched, rec)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer p.close()
	ep := &episode{setupS: time.Since(built).Seconds()}
	f, rig := p.fleet, p.rig

	runtime.GC()
	ep.dev = rig.measure(devWindow)
	runtime.GC()
	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	rig.immune.runThreads(1, f.generate)
	runtime.ReadMemStats(&gc1)
	ep.gcCycles = gc1.NumGC - gc0.NumGC
	missed := f.drain()

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ep.heapMB = float64(ms.HeapAlloc) / 1e6

	ep.bad = rig.check(ep.dev)
	fleetBad, fleetFailed := f.check()
	ep.bad = append(ep.bad, fleetBad...)
	if missed > 0 {
		ep.bad = append(ep.bad, fmt.Sprintf("%d signatures not armed everywhere within %s", missed, armDeadline))
	}
	ep.attempted = int64(ep.dev.ops) + int64(len(sched.sigs)) + rec.reports.Load()
	ep.failed = int64(ep.dev.fails+ep.dev.unexpected) + int64(missed) + fleetFailed
	if ep.failed == 0 && len(ep.bad) > 0 {
		ep.failed = int64(len(ep.bad))
	}
	ep.immunity = f.latencies()
	ep.pending, ep.armed = rec.pendingMs.values(), rec.armedMs.values()
	ep.burstS = burstSeconds(sched)
	if trace {
		if ep.layers, err = perLayer(p, ep, load); err != nil {
			return nil, err
		}
	}
	return ep, nil
}

func runWorkload(w workload, seed int64, window time.Duration, trace bool, out io.Writer) (*result, error) {
	meta, _ := json.Marshal(metadata(w, seed, trace))
	fmt.Fprintf(out, "# meta %s\n", meta)

	threads := w.threads
	if threads == 0 {
		threads = runtime.NumCPU()
	}
	rng := rand.New(rand.NewSource(seed))
	load := w.load(rng, threads)
	epWindow := window / episodes
	devWindow := epWindow / 4
	res := &result{Correct: true}
	var eps []*episode
	for i := 0; i < episodes; i++ {
		sched, err := newSchedule(rng, epWindow-devWindow)
		if err != nil {
			return nil, fmt.Errorf("%w; lengthen --seconds", err)
		}
		ep, err := runEpisode(load, sched, devWindow, trace)
		if err != nil {
			return nil, err
		}
		eps = append(eps, ep)
		res.Attempted += ep.attempted
		res.Failed += ep.failed
		res.Correct = res.Correct && len(ep.bad) == 0
		it := tailOf(ep.immunity)
		fmt.Fprintf(out, "# episode %d: %d slice pairs of %s; %d signatures at %d/s, then %d at %d/s; %d GC cycles in the fleet window\n",
			i, ep.dev.pairs, slice, sched.refSigs, refRate, overloadSigs, overloadRate, ep.gcCycles)
		fmt.Fprintf(out, "#   immunity p50 %.3g ms, p%.2f %.3g ms of %d signatures; report p50 %.3g ms of %d below threshold, %.3g ms of %d arming; overload %.4g sigs/s\n",
			median(ep.immunity), it.Pct, it.Value, it.N, median(ep.pending), len(ep.pending), median(ep.armed), len(ep.armed), overloadSigs/ep.burstS)
		for _, b := range ep.bad {
			fmt.Fprintf(out, "# CHECK FAILED: %s\n", b)
		}
	}
	fmt.Fprintf(out, "# failed_ratio %.6g (%d of %d)\n", float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)

	// The latency figures pool the episodes' samples, so each tail rests
	// on every episode's, and the sustained rate pools their bursts;
	// every other end-to-end metric is the median over the episodes of
	// that episode's own figure.
	over := func(fn func(ep *episode) float64) float64 {
		v := make([]float64, len(eps))
		for i, ep := range eps {
			v[i] = fn(ep)
		}
		return median(v)
	}
	var immunity, pending, armed []float64
	var burstS float64
	for _, ep := range eps {
		burstS += ep.burstS
		immunity = append(immunity, ep.immunity...)
		pending = append(pending, ep.pending...)
		armed = append(armed, ep.armed...)
	}
	it, rt := tailOf(immunity), tailOf(append(pending, armed...))
	fmt.Fprintf(out, "# pooled: immunity tail p%.2f of %d signatures; report p%.2f %.4g ms of %d reports\n",
		it.Pct, it.N, rt.Pct, rt.Value, rt.N)
	if !trace {
		res.Metrics = map[string]metric{
			"setup_s":              {over(func(ep *episode) float64 { return ep.setupS }), "s"},
			"syncs_per_s":          {over(func(ep *episode) float64 { return median(ep.dev.syncsPerS) }), "syncs/s"},
			"enter_overhead_ns":    {over(func(ep *episode) float64 { return median(ep.dev.overheadNs) }), "ns/enter"},
			"heap_mb":              {over(func(ep *episode) float64 { return ep.heapMB }), "MB"},
			"immunity_ms_p50":      {median(immunity), "ms"},
			"immunity_ms_p99":      {it.Value, "ms"},
			"report_ms_p50":        {median(pending), "ms"},
			"arm_report_ms_p50":    {median(armed), "ms"},
			"sustained_sigs_per_s": {float64(len(eps)*overloadSigs) / burstS, "sigs/s"},
		}
	} else {
		pooled := layers{}
		for _, ep := range eps {
			pooled.pool(ep.layers)
		}
		res.Metrics = pooled.metrics()
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(out, "# %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("a metric has no samples; lengthen --seconds")
		}
	}
	return res, nil
}

// burstSeconds is how long the fleet took to arm the overload burst,
// from its first due detection to its last completed install. The burst
// offers signatures far faster than the fleet arms them, so its
// signature count over this time is the arming throughput the fleet
// sustains; a run pools it over the episodes' bursts, whose rates vary
// with how the hubs happen to batch their pushes.
func burstSeconds(sched *schedule) float64 {
	var firstDue, lastDone int64 = math.MaxInt64, 0
	for _, s := range sched.sigs[sched.refSigs:] {
		firstDue = min(firstDue, s.dueAt)
		lastDone = max(lastDone, s.doneAt.Load())
	}
	if lastDone <= firstDue {
		return math.NaN()
	}
	return float64(lastDone-firstDue) / 1e9
}
