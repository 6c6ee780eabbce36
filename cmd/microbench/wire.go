package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/dimmunix/dimmunix/internal/core"
	"github.com/dimmunix/dimmunix/internal/immunity/wire"
	"github.com/dimmunix/dimmunix/internal/workload"
)

// The -wire mode: the wire-layer microbenchmarks (codec cost, hub
// broadcast fan-out) plus a short propagation run, emitted as
// machine-readable JSON — the repo's perf trajectory baseline. CI runs
// it on every push and uploads BENCH_wire.json as an artifact, so a
// codec or fan-out regression shows up as a diffable number, not a
// feeling.

// wireBenchResult is one benchmark's measured point.
type wireBenchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// broadcastReport compares framing a copy per subscriber with the
// encode-once path at 64 subscribers (BenchmarkHubBroadcast's CLI
// twin).
type broadcastReport struct {
	Subscribers           int     `json:"subscribers"`
	PerSubscriberNsPerOp  float64 `json:"per_subscriber_ns_per_op"`
	EncodeOnceNsPerOp     float64 `json:"encode_once_ns_per_op"`
	NsSpeedup             float64 `json:"ns_speedup"`
	PerSubscriberAllocsOp int64   `json:"per_subscriber_allocs_per_op"`
	EncodeOnceAllocsOp    int64   `json:"encode_once_allocs_per_op"`
	AllocRatio            float64 `json:"alloc_ratio"`
}

// propReport is one propagation run's latency profile.
type propReport struct {
	Tier  string `json:"tier"`
	Procs int    `json:"procs"`
	Sigs  int    `json:"sigs"`
	AvgNs int64  `json:"avg_ns"`
	P50Ns int64  `json:"p50_ns"`
	P90Ns int64  `json:"p90_ns"`
	P99Ns int64  `json:"p99_ns"`
	MaxNs int64  `json:"max_ns"`
}

// machine is the report's header: what the numbers were measured on.
type machine struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
}

// wireReport is the BENCH_wire.json schema.
type wireReport struct {
	GeneratedUnix int64             `json:"generated_unix"`
	Machine       machine           `json:"machine"`
	WireVersion   int               `json:"wire_version"`
	Benchmarks    []wireBenchResult `json:"benchmarks"`
	Broadcast     broadcastReport   `json:"broadcast"`
	Propagation   []propReport      `json:"propagation"`
}

// thisMachine reads the header fields: the CPU model from
// /proc/cpuinfo (the architecture where that file does not exist) and
// the checkout's git revision, marked -dirty when the tree has
// uncommitted changes.
func thisMachine() machine {
	m := machine{CPU: runtime.GOARCH, NumCPU: runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), GitRev: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "describe", "--always", "--dirty", "--abbrev=40").Output(); err == nil {
		m.GitRev = strings.TrimSpace(string(out))
	}
	return m
}

// wireBenchSubscribers matches BenchmarkHubBroadcast.
const wireBenchSubscribers = 64

// wireBenchDelta is the representative broadcast: one armed signature.
func wireBenchDelta() wire.Message {
	a := core.Frame{Class: "com.bench.Wire", Method: "outer", Line: 11}
	b := core.Frame{Class: "com.bench.Wire", Method: "inner", Line: 22}
	sig := &core.Signature{Kind: core.DeadlockSig, Pairs: []core.SigPair{
		{Outer: core.CallStack{a}, Inner: core.CallStack{a, b}},
		{Outer: core.CallStack{b}, Inner: core.CallStack{b, a}},
	}}
	return wire.Message{Type: wire.TypeDelta,
		Delta: &wire.Delta{Epoch: 42, Sigs: []wire.Signature{wire.FromCore(sig)}}}
}

// measure runs one benchmark body and records its point.
func measure(name string, body func(b *testing.B)) wireBenchResult {
	r := testing.Benchmark(body)
	return wireBenchResult{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// runWireBench executes the -wire mode and, when out is non-empty,
// writes BENCH_wire.json there.
func runWireBench(out string, propProcs, propSigs int) error {
	rep := wireReport{
		GeneratedUnix: time.Now().Unix(),
		Machine:       thisMachine(),
		WireVersion:   wire.Version,
	}

	// Codec cost, one message each way.
	encode := measure("wire-encode", func(b *testing.B) {
		m := wireBenchDelta()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := wire.EncodeBinary(m); err != nil {
				b.Fatal(err)
			}
		}
	})
	buf, err := wire.EncodeBinary(wireBenchDelta())
	if err != nil {
		return err
	}
	decode := measure("wire-decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := wire.DecodeBinary(buf); err != nil {
				b.Fatal(err)
			}
		}
	})

	// The fan-out: a frame per subscriber vs one Shared handed to every
	// session (BenchmarkHubBroadcast's two bodies).
	perSub := measure("hub-broadcast/per-subscriber", func(b *testing.B) {
		m := wireBenchDelta()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for s := 0; s < wireBenchSubscribers; s++ {
				if _, err := wire.AppendFrame(nil, m); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	once := measure("hub-broadcast/encode-once", func(b *testing.B) {
		dm := wireBenchDelta()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sh := wire.NewShared(dm)
			for s := 0; s < wireBenchSubscribers; s++ {
				if _, err := sh.Frame(); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	rep.Benchmarks = []wireBenchResult{encode, decode, perSub, once}
	rep.Broadcast = broadcastReport{
		Subscribers:           wireBenchSubscribers,
		PerSubscriberNsPerOp:  perSub.NsPerOp,
		EncodeOnceNsPerOp:     once.NsPerOp,
		PerSubscriberAllocsOp: perSub.AllocsPerOp,
		EncodeOnceAllocsOp:    once.AllocsPerOp,
	}
	if once.NsPerOp > 0 {
		rep.Broadcast.NsSpeedup = perSub.NsPerOp / once.NsPerOp
	}
	if once.AllocsPerOp > 0 {
		rep.Broadcast.AllocRatio = float64(perSub.AllocsPerOp) / float64(once.AllocsPerOp)
	}

	m := rep.Machine
	fmt.Printf("wire bench (%d subscribers) on %s, %d CPUs, GOMAXPROCS %d, %s, rev %s:\n",
		wireBenchSubscribers, m.CPU, m.NumCPU, m.GoMaxProcs, m.GoVersion, m.GitRev)
	for _, r := range rep.Benchmarks {
		fmt.Printf("  %-38s %12.1f ns/op %8d allocs/op %8d B/op\n", r.Name, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp)
	}
	fmt.Printf("  encode-once speedup: %.1fx ns/op, %.1fx allocs/op\n",
		rep.Broadcast.NsSpeedup, rep.Broadcast.AllocRatio)

	// Propagation latency percentiles, all three tiers, through the live
	// machinery (the auth tier adds TLS and token verification on the
	// same path).
	for _, tier := range []string{"on-device", "cross-device-tcp", "cross-device-tcp-auth"} {
		var res workload.PropagationResult
		var err error
		switch tier {
		case "cross-device-tcp":
			res, err = workload.PropagationLatencyTCP(max(propProcs/4, 1), max(propSigs/2, 1))
		case "cross-device-tcp-auth":
			res, err = workload.PropagationLatencyTCPAuth(max(propProcs/4, 1), max(propSigs/2, 1))
		default:
			res, err = workload.PropagationLatency(propProcs, propSigs)
		}
		if err != nil {
			return err
		}
		rep.Propagation = append(rep.Propagation, propReport{
			Tier: tier, Procs: res.Procs, Sigs: res.Sigs,
			AvgNs: res.Avg.Nanoseconds(), P50Ns: res.P50.Nanoseconds(),
			P90Ns: res.P90.Nanoseconds(), P99Ns: res.P99.Nanoseconds(),
			MaxNs: res.Max.Nanoseconds(),
		})
		fmt.Print("  ", workload.FormatPropagation(res))
	}

	if out == "" {
		return nil
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}
