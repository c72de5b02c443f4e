package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"
	"syscall"
)

// percentileLadder is the set of percentiles a timing may be reported at.
var percentileLadder = []float64{50, 90, 95, 99, 99.9}

// minBeyond is how many samples must lie beyond a percentile before it
// may be reported: with fewer, one outlier moves it.
const minBeyond = 10

// tail is one reported timing percentile: the percentile the reporting
// rule allowed, its value and the sample count behind it.
type tail struct {
	Pct   float64
	Value float64
	N     int
}

// reportable returns the highest ladder percentile at or below want that
// has at least minBeyond samples beyond it, or 0 when none has.
func reportable(want float64, n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if p <= want && float64(n)*(100-p)/100 >= minBeyond {
			best = p
		}
	}
	return best
}

// percentile is the rule-checked percentile of xs (want: 50, 90, 99, …).
// It falls back to a lower ladder percentile when too few samples lie
// beyond want, and to the maximum when even the median is not covered.
func percentile(xs []float64, want float64) tail {
	p := reportable(want, len(xs))
	if p == 0 {
		p = 100
	}
	return tail{Pct: p, Value: quantileOf(xs, p/100), N: len(xs)}
}

// quantile linearly interpolates the q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// quantileOf is the q-quantile of unsorted values.
func quantileOf(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, q)
}

func median(xs []float64) float64 { return quantileOf(xs, 0.5) }

// peakRSSMB is this process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// digest fingerprints a sequence of output lines, so two commits whose
// outputs differ show different digests even when both are valid.
type digest struct {
	h     hash.Hash
	lines int
}

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(format string, args ...any) {
	fmt.Fprintf(d.h, format+"\n", args...)
	d.lines++
}

func (d *digest) String() string {
	return fmt.Sprintf("%s over %d outputs", hex.EncodeToString(d.h.Sum(nil))[:16], d.lines)
}
