package workload

import (
	"strings"
	"testing"
	"time"
)

// TestOverheadCurveSmall compares the fastest of several interleaved
// windows per work size, and a work gap (16000 busy iterations per op)
// that at least doubles per-op latency even under the race detector,
// whose instrumentation of the VM's monitor path makes a zero-work op
// cost tens of microseconds. A gap of a few hundred iterations is a
// percent or two of that, which one noisy window could hide.
func TestOverheadCurveSmall(t *testing.T) {
	points, err := OverheadCurve([]int{0, 16000}, 2, 32, 100*time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d, want 2", len(points))
	}
	// At zero work the interception cost dominates: vanilla must be
	// clearly faster and per-op latency must grow with work size.
	if points[0].OverheadPct() <= 0 {
		t.Errorf("zero-work overhead = %.1f%%, want > 0", points[0].OverheadPct())
	}
	if points[1].Vanilla.NsPerOp <= points[0].Vanilla.NsPerOp {
		t.Error("per-op latency must grow with work size")
	}
	out := FormatCurve(points)
	if !strings.Contains(out, "overhead") {
		t.Errorf("curve format missing header: %q", out)
	}
}

func TestDefaultCurveWorkSizes(t *testing.T) {
	sizes := DefaultCurveWorkSizes(500_000)
	if sizes[0] != 0 {
		t.Error("curve must start at zero work (pure interception cost)")
	}
	if sizes[len(sizes)-1] != 500_000 {
		t.Error("curve must end at the calibrated operating point")
	}
	// A calibrated point inside the default span must not be appended.
	small := DefaultCurveWorkSizes(100)
	if small[len(small)-1] == 100 {
		t.Error("calibrated point below span end must not be appended")
	}
}

func TestSweepPointOverheadDegenerate(t *testing.T) {
	p := SweepPoint{}
	if p.OverheadPct() != 0 {
		t.Error("zero vanilla rate must yield 0 overhead")
	}
	c := CurvePoint{}
	if c.OverheadPct() != 0 {
		t.Error("zero vanilla rate must yield 0 overhead")
	}
}

func TestDefaultSweepConfigMatchesPaperRanges(t *testing.T) {
	cfg := DefaultSweepConfig()
	if cfg.ThreadCounts[0] != 2 || cfg.ThreadCounts[len(cfg.ThreadCounts)-1] != 512 {
		t.Errorf("thread range %v, want 2..512 (paper)", cfg.ThreadCounts)
	}
	if cfg.SignatureCounts[0] != 64 || cfg.SignatureCounts[len(cfg.SignatureCounts)-1] != 256 {
		t.Errorf("signature range %v, want 64..256 (paper)", cfg.SignatureCounts)
	}
}
