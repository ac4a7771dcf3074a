// Package sketch provides a mergeable streaming quantile sketch: the
// collector-side aggregation primitive that makes `/v1/stats` O(1) in
// dataset size. The design is the DDSketch family (relative-error
// guarantees from logarithmically-spaced bins): a value x > 0 lands in
// bin ceil(log_gamma(x)), and the bin's midpoint estimate is within a
// factor (1±alpha) of every value stored in it, so any quantile comes
// back with bounded *relative* error — the right guarantee for RTTs,
// where a 1 ms error means something different at 5 ms than at 500 ms.
//
// Two properties matter to the collector:
//
//   - Merge is exact bin-wise addition, so it is associative and
//     commutative to the bit: per-shard sketches fanned into a central
//     view give the same answers regardless of shard count or merge
//     order. This is what lets the collector split ingest across
//     lock shards and still serve one truthful /v1/stats.
//
//   - Memory is O(log(max/min)/alpha) bins regardless of how many
//     values stream through — a sketch of a million RTTs and a sketch
//     of sixteen occupy the same few hundred bins.
package sketch

import (
	"fmt"
	"math"
	"sort"
)

// DefaultAlpha is the default relative accuracy: quantile estimates are
// within ±1% of an exact value at the same rank.
const DefaultAlpha = 0.01

// Sketch is a quantile sketch over positive float64 samples with
// relative accuracy alpha. Non-positive samples are counted in a zero
// bin (they contribute rank but estimate as 0). The zero value is not
// usable; construct with New. A Sketch is not safe for concurrent use;
// callers shard or lock around it.
type Sketch struct {
	alpha   float64
	gamma   float64
	lnGamma float64

	bins  map[int32]uint64
	zero  uint64 // samples <= 0
	count uint64
	sum   float64
	min   float64
	max   float64
}

// New creates an empty sketch with the given relative accuracy
// (0 < alpha < 1); alpha <= 0 selects DefaultAlpha.
func New(alpha float64) *Sketch {
	if alpha <= 0 {
		alpha = DefaultAlpha
	}
	if alpha >= 1 {
		alpha = 0.5
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &Sketch{
		alpha:   alpha,
		gamma:   gamma,
		lnGamma: math.Log(gamma),
		bins:    make(map[int32]uint64),
		min:     math.Inf(1),
		max:     math.Inf(-1),
	}
}

// RelativeAccuracy returns the sketch's alpha.
func (s *Sketch) RelativeAccuracy() float64 { return s.alpha }

// key returns the bin index of a positive value.
func (s *Sketch) key(x float64) int32 {
	return int32(math.Ceil(math.Log(x) / s.lnGamma))
}

// estimate returns the midpoint value of a bin: within (1±alpha) of
// every value the bin holds.
func (s *Sketch) estimate(k int32) float64 {
	return 2 * math.Pow(s.gamma, float64(k)) / (1 + s.gamma)
}

// Add records one sample.
func (s *Sketch) Add(x float64) { s.AddN(x, 1) }

// AddN records a sample n times.
func (s *Sketch) AddN(x float64, n uint64) {
	if n == 0 {
		return
	}
	s.count += n
	s.sum += x * float64(n)
	if x < s.min {
		s.min = x
	}
	if x > s.max {
		s.max = x
	}
	if x <= 0 {
		s.zero += n
		return
	}
	s.bins[s.key(x)] += n
}

// Count returns the number of samples recorded.
func (s *Sketch) Count() uint64 { return s.count }

// Sum returns the sum of all samples.
func (s *Sketch) Sum() float64 { return s.sum }

// Mean returns the arithmetic mean, or 0 when empty.
func (s *Sketch) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// Min returns the smallest sample (exact), or 0 when empty.
func (s *Sketch) Min() float64 {
	if s.count == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest sample (exact), or 0 when empty.
func (s *Sketch) Max() float64 {
	if s.count == 0 {
		return 0
	}
	return s.max
}

// Bins returns the number of occupied bins — the sketch's memory
// footprint in units of (int32, uint64) pairs.
func (s *Sketch) Bins() int { return len(s.bins) }

// Quantile returns the q-quantile estimate (0 <= q <= 1). The estimate
// is within relative error alpha of the exact sample at the same
// closest rank, clamped to the exact [Min, Max]. Returns 0 when empty.
func (s *Sketch) Quantile(q float64) float64 {
	if s.count == 0 {
		return 0
	}
	if q <= 0 {
		return s.min
	}
	if q >= 1 {
		return s.max
	}
	// Rank of the wanted sample among count samples, 0-based.
	rank := uint64(q * float64(s.count-1))
	if rank < s.zero {
		return clamp(0, s.min, s.max)
	}
	seen := s.zero
	for _, k := range s.sortedKeys() {
		seen += s.bins[k]
		if rank < seen {
			return clamp(s.estimate(k), s.min, s.max)
		}
	}
	return s.max
}

// Median returns the 0.5-quantile estimate.
func (s *Sketch) Median() float64 { return s.Quantile(0.5) }

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// sortedKeys returns the occupied bin indexes in ascending order.
// O(bins log bins) per quantile query — independent of sample count.
func (s *Sketch) sortedKeys() []int32 {
	keys := make([]int32, 0, len(s.bins))
	for k := range s.bins {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// Merge folds o into s. Only sketches of equal alpha merge (their bin
// boundaries coincide, making the merge an exact bin-wise addition —
// associative and commutative). o is left unchanged.
func (s *Sketch) Merge(o *Sketch) error {
	if o == nil || o.count == 0 {
		return nil
	}
	if o.alpha != s.alpha {
		return fmt.Errorf("sketch: merging alpha %v into %v", o.alpha, s.alpha)
	}
	for k, n := range o.bins {
		s.bins[k] += n
	}
	s.zero += o.zero
	s.count += o.count
	s.sum += o.sum
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	return nil
}

// Clone returns an independent copy.
func (s *Sketch) Clone() *Sketch {
	c := *s
	c.bins = make(map[int32]uint64, len(s.bins))
	for k, n := range s.bins {
		c.bins[k] = n
	}
	return &c
}
