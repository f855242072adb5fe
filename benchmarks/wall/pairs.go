package main

import (
	"math"
	"sort"
	"time"
)

// The measured phase is one wall-clock timeline cut into slices of equal
// length. Even slices carry the workload against bulletd, odd slices its
// null twin against the null server; after the warm-up, slice 2i and slice
// 2i+1 form pair i. Run-level noise on a shared VM (a vCPU descheduled, a
// neighbour's burst) lasts far longer than a slice, so it hits both halves
// of a pair alike and cancels in their ratio.

// sliceOf is the index of the slice that t falls in.
func sliceOf(t0, t time.Time, slice time.Duration) int {
	return int(t.Sub(t0) / slice)
}

// isBullet reports whether a slice carries Bullet traffic.
func isBullet(slice int) bool { return slice%2 == 0 }

// sliceLog is what one worker counted per slice. Throughput comes from the
// ops that started and completed inside a slice, over the time those ops
// took (busy), so the op that straddles a boundary costs neither server's
// slice anything and slices may be short. Server CPU per op divides by the
// ops that started in the slice, because that is where a straddling op's
// server work happens.
type sliceLog struct {
	ops     []int64
	bytes   []int64
	busy    []int64 // ns spent in the ops counted in ops
	started []int64
	// lat holds the latency of every op counted in a Bullet slice, in
	// completion order, latSlice the slice each belongs to.
	lat      []int32
	latSlice []uint32
}

func newSliceLog(slices int) *sliceLog {
	return &sliceLog{
		ops: make([]int64, slices), bytes: make([]int64, slices),
		busy: make([]int64, slices), started: make([]int64, slices),
	}
}

// record counts one successful op that started in slice start and ended
// in slice end.
func (l *sliceLog) record(start, end int, bytes int64, latency time.Duration) {
	if start >= len(l.ops) {
		return
	}
	l.started[start]++
	if start != end {
		return
	}
	l.ops[end]++
	l.bytes[end] += bytes
	l.busy[end] += int64(latency)
	if isBullet(end) {
		l.lat = append(l.lat, int32(min(latency, math.MaxInt32)))
		l.latSlice = append(l.latSlice, uint32(end))
	}
}

// replayer makes a worker's null slice carry the same payloads as the
// Bullet slice before it: it collects the ops the worker completed inside
// that slice — the ones its throughput counts — and hands their twins out
// during the null slice, over and over, since the null server is faster.
type replayer struct {
	done, replay []op
	pos, slice   int
}

// completed notes an op that started and ended in the current Bullet slice.
func (r *replayer) completed(o op) { r.done = append(r.done, o) }

// next is the op to run now, in null slice slice. A Bullet slice that
// completed nothing leaves the list before it in place.
func (r *replayer) next(slice int) (op, bool) {
	if slice != r.slice {
		r.slice = slice
		if len(r.done) > 0 {
			r.done, r.replay, r.pos = r.replay[:0], r.done, 0
		}
	}
	if len(r.replay) == 0 {
		return op{}, false
	}
	o := r.replay[r.pos]
	r.pos = (r.pos + 1) % len(r.replay)
	return o, true
}

// sumSlices adds the workers' per-slice counts.
func sumSlices(logs []*sliceLog, pick func(*sliceLog) []int64) []int64 {
	out := make([]int64, len(pick(logs[0])))
	for _, l := range logs {
		for i, v := range pick(l) {
			out[i] += v
		}
	}
	return out
}

// rates is the per-slice throughput, in units of pick per second: the sum
// over workers of what each completed divided by the time it took.
func rates(logs []*sliceLog, pick func(*sliceLog) []int64) []float64 {
	out := make([]float64, len(logs[0].ops))
	for _, l := range logs {
		for i, v := range pick(l) {
			if l.busy[i] > 0 {
				out[i] += float64(v) / (float64(l.busy[i]) / 1e9)
			}
		}
	}
	return out
}

// perOp divides each slice's total by its count; 0 where nothing counted.
func perOp(total, count []int64) []float64 {
	out := make([]float64, len(total))
	for i := range total {
		if count[i] > 0 {
			out[i] = float64(total[i]) / float64(count[i])
		}
	}
	return out
}

// pairRatios returns v(Bullet slice) / v(null slice) for each pair after
// the warm-up that keep admits (nil: every pair). Pairs with a zero on
// either side (nothing completed) are dropped; the caller compares
// len(result) with the number of pairs kept.
func pairRatios(v []float64, warmSlices, pairs int, keep []bool) []float64 {
	out := make([]float64, 0, pairs)
	for i := 0; i < pairs; i++ {
		b := warmSlices + 2*i
		if (keep == nil || keep[i]) && v[b] > 0 && v[b+1] > 0 {
			out = append(out, v[b]/v[b+1])
		}
	}
	return out
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the q-quantile of v by linear interpolation; NaN if empty.
func quantile(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return sortedQuantile(s, q)
}

func sortedQuantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// quartileSpread is (Q3 - Q1) / median with the quartiles of Python's
// statistics.quantiles(v, n=4) (the exclusive method), which is how the
// pipeline judges whether a metric repeats.
func quartileSpread(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (cut(3) - cut(1)) / median(v)
}
