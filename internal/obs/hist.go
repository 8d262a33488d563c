package obs

// Log-bucketed latency histograms, HDR-histogram style: a fixed array
// of buckets whose upper bounds grow geometrically (4 sub-buckets per
// octave, so bucket widths stay within ~19% relative error), covering
// one nanosecond to about three days of seconds-denominated latency.
// Observe is allocation-free and O(1); the serializable HistSnapshot
// form is sparse (only non-empty buckets travel) and merges
// associatively and commutatively, so cross-rank gathers can fold
// snapshots in any tree order and arrive at the same distribution —
// the property TestHistMergeAssociative pins.

import (
	"math"
	"sort"
)

// HistID identifies one typed per-rank latency histogram. Histograms
// record distributions of durations in seconds, in the rank's span
// time base (virtual seconds for distributed ranks, wall seconds for
// sequential ones) — except HistRetryBackoff for TCP, which is wall
// time (see docs/OBSERVABILITY.md).
type HistID uint8

// The histogram set. NumHists bounds the array; new histograms must be
// appended (snapshots index by value) and named in histNames.
const (
	// HistSendLatency is the modeled per-message cost of each send:
	// Alpha + Beta·bytes under the world's CostModel (zero when the
	// zero CostModel is in use).
	HistSendLatency HistID = iota
	// HistRecvWait is the time a Recv advanced the receiver's clock —
	// the receiver-side wait for the message to arrive under the α–β
	// model (zero when the message had already arrived).
	HistRecvWait
	// HistBarrierWait is the time each Barrier cost the rank: the jump
	// to the group maximum plus the modeled tree latency. Its spread
	// across ranks is the barrier skew.
	HistBarrierWait
	// HistHaloExchange is the duration of each per-level halo exchange
	// in internal/core (sends plus receives, one observation per level
	// per phase step).
	HistHaloExchange
	// HistRetryBackoff is the backoff slept before each send retry
	// (fault-injected drops in virtual time, TCP write failures in
	// wall time) — the distribution behind the BackoffNanos counter.
	HistRetryBackoff
	// HistServeQueueWait is the wall time a served query spent in the
	// admission queue before a worker picked it up (internal/serve).
	HistServeQueueWait
	// HistServeQueryLatency is the wall time from a served query's
	// admission to its terminal state — queueing, execution (or cache /
	// singleflight attach), and result publication (internal/serve).
	HistServeQueryLatency
	// HistServeBatchOccupancy is the lane count of each batched DP
	// execution the admission window assembled (internal/serve). Note
	// the unit caveat: histograms export under a `_seconds` suffix for
	// uniformity, but this one observes a dimensionless lane count.
	HistServeBatchOccupancy
	// HistServeLaneCost is observed once per batched lane: the lane's
	// own sweep time, since a batch's lanes are solo sweeps run side by
	// side (internal/serve).
	HistServeLaneCost
	// HistServeDPTime is the wall time each flight-leading query spent
	// executing its DP — the dp stage of its QueryTrace, excluding
	// queueing and result publication (internal/serve).
	HistServeDPTime
	// HistServeBatchAssembly is the wall time a batch leader spent
	// holding the admission window collecting compatible lanes before
	// executing (internal/serve; zero observations with batching off).
	HistServeBatchAssembly
	// HistStoreColdStart is the wall time to bring a stored graph from
	// disk to query-ready: open, header validation, and mmap of the
	// repository file (internal/store; a resident re-acquire observes
	// nothing — that is a store hit).
	HistStoreColdStart
	// HistClusterForward is the wall time of each forwarded query's
	// proxy round trip to a shard owner, as seen by the fronting
	// replica (internal/cluster).
	HistClusterForward
	// HistClusterHandoff is the wall time of each shard handoff: pull
	// the sealed v2 graph file plus its partition artifacts from a
	// peer, land them in the local store, and register the graph
	// (internal/cluster).
	HistClusterHandoff

	// NumHists is the number of defined histograms.
	NumHists
)

var histNames = [NumHists]string{
	"send-latency", "recv-wait", "barrier-wait", "halo-exchange", "retry-backoff",
	"serve-queue-wait", "serve-query-latency",
	"serve-batch-occupancy", "serve-lane-cost",
	"serve-dp-time", "serve-batch-assembly",
	"store-cold-start",
	"cluster-forward", "cluster-handoff",
}

// String returns the stable kebab-case name used by the exporters.
func (h HistID) String() string {
	if int(h) < len(histNames) {
		return histNames[h]
	}
	return "hist-?"
}

// Bucket geometry. histMinValue is the upper bound of bucket 0; each
// subsequent bucket's bound grows by 2^(1/histSubPerOctave). 192
// buckets at 4 per octave span 48 octaves: 1 ns … ~2.8e5 s.
const (
	histMinValue     = 1e-9
	histSubPerOctave = 4
	histBuckets      = 192
)

// histBounds[i] is the inclusive upper bound of bucket i, precomputed
// so Observe, the exporters and the quantile walk agree exactly.
var histBounds [histBuckets]float64

func init() {
	for i := 0; i < histBuckets; i++ {
		histBounds[i] = histMinValue * math.Pow(2, float64(i)/histSubPerOctave)
	}
}

// HistUpperBound returns the inclusive upper bound of bucket i in
// seconds (+Inf for the last bucket, which absorbs all larger values).
func HistUpperBound(i int) float64 {
	if i >= histBuckets-1 {
		return math.Inf(1)
	}
	if i < 0 {
		i = 0
	}
	return histBounds[i]
}

// histBucketOf maps a value in seconds to its bucket index.
func histBucketOf(v float64) int {
	if v <= histMinValue || math.IsNaN(v) {
		return 0
	}
	f := math.Ceil(math.Log2(v/histMinValue) * histSubPerOctave)
	if f >= histBuckets-1 { // the float comparison also absorbs +Inf
		return histBuckets - 1
	}
	return int(f)
}

// Hist is the in-recorder histogram: fixed-size, allocation-free to
// observe into. The zero value is an empty histogram.
type Hist struct {
	counts [histBuckets]int64
	count  int64
	sum    float64
	min    float64
	max    float64
}

// observe records v (seconds). Negative values clamp to zero.
func (h *Hist) observe(v float64) {
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	h.counts[histBucketOf(v)]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// snapshot freezes the histogram into its sparse serializable form.
func (h *Hist) snapshot(name string) HistSnapshot {
	out := HistSnapshot{Name: name, Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	for i, n := range h.counts {
		if n != 0 {
			out.Bucket = append(out.Bucket, i)
			out.N = append(out.N, n)
		}
	}
	return out
}

// reset empties the histogram.
func (h *Hist) reset() { *h = Hist{} }

// HistSnapshot is the serializable, mergeable form of one histogram:
// sparse parallel arrays of non-empty bucket indices (ascending) and
// their counts, plus the exact count/sum/min/max. All values are
// seconds.
type HistSnapshot struct {
	Name  string  `json:"name"`
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
	// Bucket[j] is a bucket index (see HistUpperBound); N[j] its count.
	Bucket []int   `json:"bucket,omitempty"`
	N      []int64 `json:"n,omitempty"`
}

// Merge combines two histogram distributions. The operation is
// associative and commutative — fold snapshots gathered from any
// number of ranks in any order — and never aliases its inputs' slices.
// An empty side yields a copy of the other (keeping a's Name when both
// are named).
func (a HistSnapshot) Merge(b HistSnapshot) HistSnapshot {
	name := a.Name
	if name == "" {
		name = b.Name
	}
	if a.Count == 0 && b.Count == 0 {
		return HistSnapshot{Name: name}
	}
	if a.Count == 0 {
		out := b
		out.Name = name
		out.Bucket = append([]int(nil), b.Bucket...)
		out.N = append([]int64(nil), b.N...)
		return out
	}
	if b.Count == 0 {
		out := a
		out.Name = name
		out.Bucket = append([]int(nil), a.Bucket...)
		out.N = append([]int64(nil), a.N...)
		return out
	}
	out := HistSnapshot{
		Name:  name,
		Count: a.Count + b.Count,
		Sum:   a.Sum + b.Sum,
		Min:   math.Min(a.Min, b.Min),
		Max:   math.Max(a.Max, b.Max),
	}
	// Merge the two sorted sparse arrays.
	i, j := 0, 0
	for i < len(a.Bucket) || j < len(b.Bucket) {
		switch {
		case j >= len(b.Bucket) || (i < len(a.Bucket) && a.Bucket[i] < b.Bucket[j]):
			out.Bucket = append(out.Bucket, a.Bucket[i])
			out.N = append(out.N, a.N[i])
			i++
		case i >= len(a.Bucket) || b.Bucket[j] < a.Bucket[i]:
			out.Bucket = append(out.Bucket, b.Bucket[j])
			out.N = append(out.N, b.N[j])
			j++
		default: // same bucket index
			out.Bucket = append(out.Bucket, a.Bucket[i])
			out.N = append(out.N, a.N[i]+b.N[j])
			i++
			j++
		}
	}
	return out
}

// Quantile returns an estimate of the p-quantile (p in [0,1]) in
// seconds: the upper bound of the bucket holding the p·Count-th
// observation, clamped to the exact observed [Min, Max]. Returns 0 on
// an empty histogram. Quantile(0) is Min and Quantile(1) is Max
// exactly; intermediate quantiles carry the ~19% bucket resolution.
func (s HistSnapshot) Quantile(p float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if p <= 0 {
		return s.Min
	}
	if p >= 1 {
		return s.Max
	}
	target := int64(math.Ceil(p * float64(s.Count)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for j, idx := range s.Bucket {
		cum += s.N[j]
		if cum >= target {
			v := HistUpperBound(idx)
			if v > s.Max {
				v = s.Max
			}
			if v < s.Min {
				v = s.Min
			}
			return v
		}
	}
	return s.Max
}

// Mean returns the exact arithmetic mean (0 on an empty histogram).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Cumulative returns (upper bound, cumulative count) pairs for the
// Prometheus exposition: one pair per non-empty bucket, bounds
// ascending, counts non-decreasing. The +Inf bucket is the caller's
// (its cumulative count is Count).
func (s HistSnapshot) Cumulative() (bounds []float64, cum []int64) {
	var c int64
	for j, idx := range s.Bucket {
		c += s.N[j]
		if b := HistUpperBound(idx); !math.IsInf(b, 1) {
			bounds = append(bounds, b)
			cum = append(cum, c)
		}
	}
	return bounds, cum
}

// MergeHists folds two snapshot histogram lists by name (the form
// Snapshot.Hists travels in). The result is sorted by name; either
// side may be nil.
func MergeHists(a, b []HistSnapshot) []HistSnapshot {
	byName := make(map[string]HistSnapshot, len(a)+len(b))
	for _, h := range a {
		byName[h.Name] = byName[h.Name].Merge(h)
	}
	for _, h := range b {
		byName[h.Name] = byName[h.Name].Merge(h)
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]HistSnapshot, 0, len(names))
	for _, n := range names {
		out = append(out, byName[n])
	}
	return out
}
