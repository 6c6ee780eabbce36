package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dimmunix/dimmunix/internal/apps"
	"github.com/dimmunix/dimmunix/internal/core"
	"github.com/dimmunix/dimmunix/internal/immunity"
	"github.com/dimmunix/dimmunix/internal/vm"
)

const (
	streamLen = 1 << 15 // ops per thread stream, replayed cyclically
	lockPool  = 16      // shared lock objects: small enough that enters contend
	hotSites  = 16      // deep-history's synchronization sites
	deepSigs  = 256     // deep-history's synthetic signatures
	slice     = 50 * time.Millisecond
)

type op struct{ site, lock uint16 }

// deviceLoad is one seeded monitorenter stream: the sites threads
// synchronize at, which of them history signatures name, and one op
// sequence per thread.
type deviceLoad struct {
	frames  []core.Frame
	armed   []bool
	history []*core.Signature
	streams [][]op
}

// neverInstantiable covers site with a signature whose second outer
// position no thread ever reaches: every enter at site runs the
// avoidance check, and no check can ever match.
func neverInstantiable(site core.Frame, i int) *core.Signature {
	hot := core.CallStack{site}
	cold := core.CallStack{{Class: "com.perfbench.cold.Never", Method: "enter", Line: i + 1}}
	return &core.Signature{Kind: core.DeadlockSig, Pairs: []core.SigPair{
		{Outer: hot, Inner: hot}, {Outer: cold, Inner: cold}}}
}

// appsMixLoad synchronizes over the union of the Table-1 profiles' call
// sites; a quarter of each profile's sites is covered by one
// never-instantiable signature.
func appsMixLoad(rng *rand.Rand, threads int) *deviceLoad {
	l := &deviceLoad{}
	index := map[core.Frame]int{}
	for _, p := range apps.Table1() {
		var ids []int
		for _, f := range p.SiteFrames() {
			id, ok := index[f]
			if !ok {
				id = len(l.frames)
				index[f] = id
				l.frames = append(l.frames, f)
				l.armed = append(l.armed, false)
			}
			ids = append(ids, id)
		}
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		for _, id := range ids[:len(ids)/4] {
			if !l.armed[id] {
				l.armed[id] = true
				l.history = append(l.history, neverInstantiable(l.frames[id], len(l.history)))
			}
		}
	}
	l.streams = makeStreams(rng, threads, len(l.frames))
	return l
}

// deepHistoryLoad is the paper's §5 E3 shape: a few hot sites, each
// named by deepSigs/hotSites signatures, so every enter takes the slow
// path and matches all of them.
func deepHistoryLoad(rng *rand.Rand, threads int) *deviceLoad {
	l := &deviceLoad{}
	for i := 0; i < hotSites; i++ {
		l.frames = append(l.frames, core.Frame{Class: "com.perfbench.hot.Site", Method: "sync", Line: 10 + i})
		l.armed = append(l.armed, true)
	}
	for i := 0; i < deepSigs; i++ {
		l.history = append(l.history, neverInstantiable(l.frames[i%hotSites], i))
	}
	l.streams = makeStreams(rng, threads, len(l.frames))
	return l
}

func makeStreams(rng *rand.Rand, threads, sites int) [][]op {
	out := make([][]op, threads)
	for t := range out {
		out[t] = make([]op, streamLen)
		for i := range out[t] {
			out[t][i] = op{site: uint16(rng.Intn(sites)), lock: uint16(rng.Intn(lockPool))}
		}
	}
	return out
}

// sliceResult is one thread's work in one measured slice.
type sliceResult struct {
	ops, fails int
	dur        time.Duration
}

// loadProc is one process running the stream on its own VM threads.
type loadProc struct {
	proc    *vm.Process
	stop    atomic.Bool
	starts  []chan struct{}
	results chan sliceResult
	threads []*vm.Thread
	ops     uint64 // ops completed across all slices
	fails   uint64
	base    vm.ProcessStats
}

// start launches one VM thread per stream. Each waits for a slice to
// start, runs ops until the slice stops, and reports its work.
func (lp *loadProc) start(load *deviceLoad) error {
	lp.results = make(chan sliceResult, len(load.streams))
	objs := make([]*vm.Object, lockPool)
	for i := range objs {
		objs[i] = lp.proc.NewObject(fmt.Sprintf("lock%d", i))
	}
	for i, stream := range load.streams {
		start := make(chan struct{})
		stream := stream
		t, err := lp.proc.Start(fmt.Sprintf("load%d", i), func(t *vm.Thread) {
			pos := 0
			for range start {
				res := sliceResult{}
				begin := time.Now()
				for !lp.stop.Load() {
					o := stream[pos&(streamLen-1)]
					pos++
					t.PushFrame(load.frames[o.site])
					obj := objs[o.lock]
					if err := obj.Enter(t); err != nil {
						res.fails++
					} else if err := obj.Exit(t); err != nil {
						res.fails++
					} else {
						res.ops++
					}
					t.PopFrame()
				}
				res.dur = time.Since(begin)
				lp.results <- res
			}
		})
		if err != nil {
			return err
		}
		lp.starts = append(lp.starts, start)
		lp.threads = append(lp.threads, t)
	}
	lp.base = lp.proc.Stats()
	return nil
}

// runSlice runs every thread of the process for d and returns the
// process's syncs/s and mean ns per enter per thread.
func (lp *loadProc) runSlice(d time.Duration) (syncsPerS, nsPerOp float64) {
	return lp.runThreads(len(lp.starts), func() { time.Sleep(d) })
}

// runThreads runs the first n threads while during runs.
func (lp *loadProc) runThreads(n int, during func()) (syncsPerS, nsPerOp float64) {
	lp.stop.Store(false)
	for _, s := range lp.starts[:n] {
		s <- struct{}{}
	}
	during()
	lp.stop.Store(true)
	var nsSum float64
	for range lp.starts[:n] {
		r := <-lp.results
		lp.ops += uint64(r.ops)
		lp.fails += uint64(r.fails)
		if r.ops > 0 {
			syncsPerS += float64(r.ops) / r.dur.Seconds()
			nsSum += float64(r.dur.Nanoseconds()) / float64(r.ops)
		}
	}
	return syncsPerS, nsSum / float64(n)
}

// stopThreads ends the load threads and waits for them.
func (lp *loadProc) stopThreads() {
	for _, s := range lp.starts {
		close(s)
	}
	lp.starts = nil
	for _, t := range lp.threads {
		<-t.Done()
	}
}

// deviceRig is the device under test: an immune process bound to the
// device's Service (so fleet armings hot-install into it) and a vanilla
// twin from a Dimmunix-less Zygote, running the same seeded streams.
type deviceRig struct {
	svc     *immunity.Service
	immune  *loadProc
	vanilla *loadProc
	core0   core.Stats
}

func newDeviceRig(load *deviceLoad) (r *deviceRig, err error) {
	svc, err := immunity.NewService("dut", nil)
	if err != nil {
		return nil, err
	}
	r = &deviceRig{svc: svc}
	defer func() {
		if err != nil {
			r.close()
			r = nil
		}
	}()
	imm, err := vm.NewZygote(vm.WithDimmunix(true), vm.WithSignatureBus(svc),
		vm.WithCoreOptions(core.WithEventBuffer(eventBuffer))).Fork("app")
	if err != nil {
		return r, err
	}
	r.immune = &loadProc{proc: imm}
	// The history is the app's own, not the fleet's: it goes straight
	// into the core, so the Service (and the hub behind it) only ever
	// sees fleet signatures.
	for _, sig := range load.history {
		if _, _, err := imm.Dimmunix().InstallSignature(sig); err != nil {
			return r, err
		}
	}
	van, err := vm.NewZygote(vm.WithDimmunix(false)).Fork("app")
	if err != nil {
		return r, err
	}
	r.vanilla = &loadProc{proc: van}
	if err := r.immune.start(load); err != nil {
		return r, err
	}
	if err := r.vanilla.start(load); err != nil {
		return r, err
	}
	r.core0 = imm.Dimmunix().Stats()
	return r, nil
}

// deviceResult is the device half of a run's measurements.
type deviceResult struct {
	syncsPerS    []float64 // immune, per slice
	overheadNs   []float64 // immune minus vanilla ns/enter, per slice pair
	vanillaNs    []float64
	pairs        int
	unexpected   uint64 // detections + yields + starvations
	fails        uint64
	ops          uint64
	fastRatio    float64
	checksPerOp  float64
	vanillaStats vm.ProcessStats
}

// measure alternates immune and vanilla slices (ABBA order, so drift
// cancels) until window has passed.
func (r *deviceRig) measure(window time.Duration) *deviceResult {
	res := &deviceResult{}
	end := time.Now().Add(window)
	// One unrecorded pair warms caches and the scheduler.
	r.immune.runSlice(slice)
	r.vanilla.runSlice(slice)
	for i := 0; time.Now().Before(end); i++ {
		var is, in, vn float64 // immune syncs/s, immune and vanilla ns/enter
		if i%2 == 0 {
			is, in = r.immune.runSlice(slice)
			_, vn = r.vanilla.runSlice(slice)
		} else {
			_, vn = r.vanilla.runSlice(slice)
			is, in = r.immune.runSlice(slice)
		}
		res.syncsPerS = append(res.syncsPerS, is)
		res.vanillaNs = append(res.vanillaNs, vn)
		res.overheadNs = append(res.overheadNs, in-vn)
		res.pairs++
	}
	return res
}

// check compares the generator's op counts with the VM's and the core's
// counters: every enter is one SyncOps tick, and a never-instantiable
// history can neither detect nor yield.
func (r *deviceRig) check(res *deviceResult) []string {
	var bad []string
	for _, lp := range []*loadProc{r.immune, r.vanilla} {
		got := lp.proc.Stats().SyncOps - lp.base.SyncOps
		if got != lp.ops {
			bad = append(bad, fmt.Sprintf("%s: generator ran %d ops, vm counted %d", lp.proc.Name(), lp.ops, got))
		}
		res.fails += lp.fails
		res.ops += lp.ops
	}
	st := r.immune.proc.Dimmunix().Stats()
	res.unexpected = (st.DeadlocksDetected - r.core0.DeadlocksDetected) + (st.Yields - r.core0.Yields) +
		(st.Starvations - r.core0.Starvations)
	if res.unexpected != 0 {
		bad = append(bad, fmt.Sprintf("%d detections/yields on a never-instantiable history", res.unexpected))
	}
	if res.fails != 0 {
		bad = append(bad, fmt.Sprintf("%d enter/exit errors", res.fails))
	}
	req := float64(st.Requests - r.core0.Requests)
	if req > 0 {
		res.fastRatio = float64(st.FastRequests-r.core0.FastRequests) / req
		res.checksPerOp = float64(st.AvoidanceChecks-r.core0.AvoidanceChecks) / req
	}
	res.vanillaStats = r.vanilla.proc.Stats()
	return bad
}

// stopThreads ends both processes' load threads and waits for them.
func (r *deviceRig) stopThreads() {
	for _, lp := range []*loadProc{r.immune, r.vanilla} {
		if lp != nil {
			lp.stopThreads()
		}
	}
}

// close stops the threads, kills both processes and closes the Service.
func (r *deviceRig) close() {
	r.stopThreads()
	for _, lp := range []*loadProc{r.immune, r.vanilla} {
		if lp != nil {
			lp.proc.Kill()
		}
	}
	r.svc.Close()
}

// allocsPerOp measures the Go allocator's work per enter over one
// slice of lp, with the fleet quiet.
func allocsPerOp(lp *loadProc) (allocs, bytes float64) {
	var before, after runtime.MemStats
	ops0 := lp.ops
	runtime.ReadMemStats(&before)
	lp.runSlice(4 * slice)
	runtime.ReadMemStats(&after)
	n := float64(lp.ops - ops0)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	return float64(after.Mallocs-before.Mallocs) / n,
		float64(after.TotalAlloc-before.TotalAlloc) / n
}

// replayResult holds the per-layer numbers from replaying the recorded
// (stack, lock) stream straight against the core.
type replayResult struct {
	enterNs, internNs, internAllocs float64
	scaling2v1                      float64
	matchNs                         float64
}

// replay drives a fresh core with load's history through Intern,
// Request, Acquired and Release, bypassing the VM. Each goroutine has
// its own thread node and lock nodes, so the replay measures the engine
// alone, with no monitor contention.
func replay(load *deviceLoad, ops int) (replayResult, error) {
	var rr replayResult
	c, err := core.New()
	if err != nil {
		return rr, err
	}
	defer c.Close()
	for _, sig := range load.history {
		if _, _, err := c.AddSignature(sig); err != nil {
			return rr, err
		}
	}
	stacks := make([]core.CallStack, len(load.frames))
	for i, f := range load.frames {
		stacks[i] = core.CallStack{f}
	}
	type worker struct {
		t     *core.Node
		locks []*core.Node
	}
	newWorker := func(name string) worker {
		w := worker{t: c.NewThreadNode(name, nil)}
		for i := 0; i < lockPool; i++ {
			w.locks = append(w.locks, c.NewLockNode(fmt.Sprintf("%s/l%d", name, i)))
		}
		return w
	}
	run := func(w worker, stream []op, n int) (time.Duration, error) {
		begin := time.Now()
		for i := 0; i < n; i++ {
			o := stream[i&(len(stream)-1)]
			pos, err := c.Intern(stacks[o.site])
			if err != nil {
				return 0, err
			}
			l := w.locks[o.lock]
			if err := c.Request(w.t, l, pos); err != nil {
				return 0, err
			}
			c.Acquired(w.t, l)
			c.Release(w.t, l)
		}
		return time.Since(begin), nil
	}
	w0 := newWorker("r0")
	if _, err := run(w0, load.streams[0], ops/4); err != nil { // warm the intern table
		return rr, err
	}
	d1, err := run(w0, load.streams[0], ops)
	if err != nil {
		return rr, err
	}
	rr.enterNs = float64(d1.Nanoseconds()) / float64(ops)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	begin := time.Now()
	for i := 0; i < ops; i++ {
		if _, err := c.Intern(stacks[load.streams[0][i&(streamLen-1)].site]); err != nil {
			return rr, err
		}
	}
	rr.internNs = float64(time.Since(begin).Nanoseconds()) / float64(ops)
	runtime.ReadMemStats(&after)
	rr.internAllocs = float64(after.Mallocs-before.Mallocs) / float64(ops)

	// Two goroutines on two streams against the same core.
	w1 := newWorker("r1")
	var wg sync.WaitGroup
	durs := make([]time.Duration, 2)
	errs := make([]error, 2)
	for i, w := range []worker{w0, w1} {
		wg.Add(1)
		go func(i int, w worker) {
			defer wg.Done()
			durs[i], errs[i] = run(w, load.streams[i%len(load.streams)], ops)
		}(i, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return rr, err
		}
	}
	rr.scaling2v1 = (float64(durs[0]+durs[1]) / 2 / float64(ops)) / rr.enterNs

	// Armed-site minus unarmed-site enter time. A load with no unarmed
	// site (deep-history) is compared with a site no signature names.
	var armedOps, plainOps []op
	for _, o := range load.streams[0] {
		if load.armed[o.site] {
			armedOps = append(armedOps, o)
		} else {
			plainOps = append(plainOps, o)
		}
	}
	if len(plainOps) == 0 {
		stacks = append(stacks, core.CallStack{{Class: "com.perfbench.control.Site", Method: "sync", Line: 1}})
		for _, o := range armedOps {
			plainOps = append(plainOps, op{site: uint16(len(stacks) - 1), lock: o.lock})
		}
	}
	if len(armedOps) > 0 {
		// ABBA order, so drift cancels.
		armed, plain := padPow2(armedOps), padPow2(plainOps)
		var diff time.Duration
		for i, stream := range [][]op{armed, plain, plain, armed} {
			d, err := run(w0, stream, ops/2)
			if err != nil {
				return rr, err
			}
			if i%3 == 0 { // the armed runs
				diff += d
			} else {
				diff -= d
			}
		}
		rr.matchNs = float64(diff.Nanoseconds()) / float64(ops)
	}
	return rr, nil
}

// padPow2 repeats ops up to a power-of-two length so run can index it
// with a mask.
func padPow2(ops []op) []op {
	n := 1
	for n < len(ops) {
		n <<= 1
	}
	out := make([]op, n)
	for i := range out {
		out[i] = ops[i%len(ops)]
	}
	return out
}
