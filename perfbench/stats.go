package main

import (
	"bufio"
	"os"
	"slices"
	"strconv"
	"strings"
)

// quantile returns the nearest-rank q-quantile of xs (0 when empty). It
// sorts xs in place.
func quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(q*float64(len(xs))+0.999999) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

// median returns the median of xs (0 when empty), sorting xs in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// resetPeakRSS resets the kernel's resident high-water mark (VmHWM) of
// this process, so peakRSSMB covers only what runs afterwards. Linux
// only; elsewhere VmHWM keeps its process-lifetime value.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: see above
}

// peakRSSMB reads VmHWM, the peak resident memory of this process, from
// /proc, in MiB; 0 when unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
