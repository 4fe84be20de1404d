package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"time"

	"repro/internal/sqltypes"
)

// hist is a log-linear latency histogram: 128 linear sub-buckets per
// power of two of nanoseconds, so a percentile is known to better than
// 1 % whatever the sample count, and the driver's memory does not grow
// with throughput (live_heap_mb counts the driver's heap too).
type hist struct {
	counts [64 * histSub]uint32
	n      int
}

const histSub = 128

func histBucket(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			ns = 0
		}
		return int(ns)
	}
	exp := bits.Len64(uint64(ns)) - 8 // ns>>exp lies in [128,256)
	return (exp+1)*histSub + int(ns>>uint(exp)) - histSub
}

// bucketBounds is the inverse of histBucket: the half-open nanosecond
// range a bucket covers.
func bucketBounds(b int) (lo, hi float64) {
	if b < histSub {
		return float64(b), float64(b + 1)
	}
	exp := uint(b/histSub - 1)
	lo = float64(int64(b%histSub+histSub) << exp)
	return lo, lo + float64(int64(1)<<exp)
}

func (h *hist) add(d time.Duration) {
	h.counts[histBucket(int64(d))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// percentileMs interpolates linearly inside the bucket holding the
// p-th percentile and returns milliseconds.
func (h *hist) percentileMs(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := p / 100 * float64(h.n)
	cum := 0.0
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, hi := bucketBounds(b)
			return (lo + (hi-lo)*(target-cum)/float64(c)) / 1e6
		}
		cum += float64(c)
	}
	return 0
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile uses the same "exclusive" method as Python's
// statistics.quantiles, which is what the acceptance rule for this
// benchmark is stated in.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q*float64(len(s)+1) - 1
	if pos <= 0 {
		return s[0]
	}
	if pos >= float64(len(s)-1) {
		return s[len(s)-1]
	}
	i := int(pos)
	return s[i] + (s[i+1]-s[i])*(pos-float64(i))
}

// spread is the interquartile range as a share of the median.
func spread(v []float64) float64 {
	m := median(v)
	if len(v) < 2 || m == 0 {
		return 0
	}
	return (quantile(v, 0.75) - quantile(v, 0.25)) / math.Abs(m)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// fingerprint summarises a result set as row count plus an
// order-insensitive hash. Floats are rounded to 6 significant digits
// because parallel partial aggregation may differ from serial in the
// last ULP.
type fingerprint struct {
	rows int
	hash uint64
}

func fingerprintRows(rows []sqltypes.Row) fingerprint {
	fp := fingerprint{rows: len(rows)}
	var buf []byte
	for _, row := range rows {
		buf = buf[:0]
		for _, v := range row {
			switch v.T {
			case sqltypes.Int:
				buf = strconv.AppendInt(buf, v.I, 10)
			case sqltypes.Float:
				buf = strconv.AppendFloat(buf, v.F, 'g', 6, 64)
			case sqltypes.Text:
				buf = append(buf, v.S...)
			default:
				buf = append(buf, "NULL"...)
			}
			buf = append(buf, 0)
		}
		h := fnv.New64a()
		h.Write(buf)
		fp.hash += h.Sum64()
	}
	return fp
}

func (f fingerprint) String() string { return fmt.Sprintf("%d rows #%016x", f.rows, f.hash) }
