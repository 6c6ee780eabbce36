package workload

import (
	"fmt"
	"strings"
	"time"
)

// Overhead curve: the paper's 4–5% overhead is a property of an operating
// point — the ratio between per-operation computation and the per-
// operation interception cost (dominated by dvmGetCallStack on the
// paper's 1 GHz ARM). On a faster host with a cheaper stack capture, the
// same ratio occurs at a smaller per-op work size. The curve sweeps per-op
// busy work from zero (pure interception cost, the upper bound on
// overhead) to the paper-calibrated operating point, locating where the
// 4–5% regime falls.

// CurvePoint is one work-size measurement.
type CurvePoint struct {
	// WorkIters is the busy-work iterations per op.
	WorkIters int
	// Vanilla and Dimmunix are the measured results.
	Vanilla  Result
	Dimmunix Result
}

// OverheadPct is the throughput overhead at this work size.
func (p CurvePoint) OverheadPct() float64 {
	if p.Vanilla.SyncsPerSec <= 0 {
		return 0
	}
	return (p.Vanilla.SyncsPerSec - p.Dimmunix.SyncsPerSec) / p.Vanilla.SyncsPerSec * 100
}

// curveWindows is how many windows OverheadCurve splits each
// measurement into. Every configuration keeps its fastest window:
// scheduler noise (other processes on the CPUs, a GC) only ever slows a
// window down, so the fastest is the closest to the true cost, and the
// windows of all work sizes interleave so each size sees the same
// stretches of noise.
const curveWindows = 5

// OverheadCurve measures vanilla vs Dimmunix throughput across per-op work
// sizes with the given thread count and synthetic history size. Each
// configuration runs for duration in total, as the fastest of
// curveWindows interleaved windows.
func OverheadCurve(workSizes []int, threads, signatures int, duration time.Duration, seed int64) ([]CurvePoint, error) {
	points := make([]CurvePoint, len(workSizes))
	for w := 0; w < curveWindows; w++ {
		for i, work := range workSizes {
			points[i].WorkIters = work
			for _, dimmunix := range []bool{false, true} {
				cfg := DefaultMicroConfig(threads)
				cfg.Duration = duration / curveWindows
				cfg.Signatures = signatures
				cfg.InsideWork = work / 4
				cfg.OutsideWork = work - work/4
				cfg.Seed = seed
				cfg.Dimmunix = dimmunix
				res, err := Run(cfg)
				if err != nil {
					return nil, fmt.Errorf("curve work=%d dimmunix=%v: %w", work, dimmunix, err)
				}
				best := &points[i].Vanilla
				if dimmunix {
					best = &points[i].Dimmunix
				}
				if res.SyncsPerSec > best.SyncsPerSec {
					*best = res
				}
			}
		}
	}
	return points, nil
}

// FormatCurve renders the overhead curve.
func FormatCurve(points []CurvePoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%12s %16s %16s %12s %10s\n", "work/op", "vanilla", "dimmunix", "ns/op(van)", "overhead")
	for _, p := range points {
		fmt.Fprintf(&b, "%12d %13.0f/s %13.0f/s %12.0f %9.1f%%\n",
			p.WorkIters, p.Vanilla.SyncsPerSec, p.Dimmunix.SyncsPerSec, p.Vanilla.NsPerOp, p.OverheadPct())
	}
	return b.String()
}

// DefaultCurveWorkSizes spans pure interception cost up to (and past) the
// paper-calibrated operating point.
func DefaultCurveWorkSizes(calibrated int) []int {
	sizes := []int{0, 200, 1000, 4000, 16000, 64000}
	if calibrated > sizes[len(sizes)-1] {
		sizes = append(sizes, calibrated)
	}
	return sizes
}
