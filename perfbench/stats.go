package main

import (
	"math"
	"sort"
	"sync"
)

// samples collects latency observations from many goroutines.
type samples struct {
	mu sync.Mutex
	v  []float64
}

func (s *samples) add(x float64) {
	s.mu.Lock()
	s.v = append(s.v, x)
	s.mu.Unlock()
}

func (s *samples) values() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.v...)
}

// quantile returns the q-quantile of v by linear interpolation between
// closest ranks; v need not be sorted. It returns NaN for no samples.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// tail is a tail percentile reported the way the benchmark states every
// tail: the highest percentile (capped at 99) that still has at least
// ten samples beyond it, with its sample count.
type tail struct {
	Pct   float64 // the percentile actually reported, e.g. 99 or 93.75
	Value float64
	N     int
}

func tailOf(v []float64) tail {
	n := len(v)
	if n == 0 {
		return tail{Value: math.NaN()}
	}
	pct := 99.0
	if p := 100 * (1 - 10/float64(n)); p < pct {
		pct = p
	}
	if pct < 50 {
		pct = 50
	}
	return tail{Pct: pct, Value: quantile(v, pct/100), N: n}
}
