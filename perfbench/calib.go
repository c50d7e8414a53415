package main

import (
	"runtime/debug"
	"time"
)

// A shared host's speed can drift by a fifth or more over minutes (seen
// on a 2-core x86-64 VM), which moves every timing of a run together.
// After each closed-loop segment the benchmark therefore times a pass
// of a short calibration kernel of its own, and reports the segment's
// rate, and the set-up timed right after the pass, rescaled to a
// reference host, one on which that pass takes exactly calibRef. The kernel's code and data belong
// to the benchmark, and it runs with no garbage-collection cycle in
// progress and its table in cache, so what the system under test does
// moves the kernel as little as possible; README.md ("Checking the
// rescaling") measures how little.
const calibRef = time.Millisecond

// The kernel updates calibOps pseudo-random keys of a table of
// calibKeys: about a megabyte of map, the size of the workloads' join
// states.
const (
	calibKeys = 1 << 15
	calibOps  = 40000
)

// calibrator holds the kernel's table. It is filled once, and the
// kernel only updates existing keys, so a pass allocates nothing and
// leaves no work for the garbage collector.
type calibrator struct {
	table map[uint64]uint64
	x     uint64
}

func newCalibrator() *calibrator {
	c := &calibrator{table: make(map[uint64]uint64, calibKeys), x: 88172645463325252}
	for k := uint64(0); k < calibKeys; k++ {
		c.table[k] = k
	}
	return c
}

// run waits until no garbage-collection cycle is running, then times a
// pass of the kernel after an untimed one that brings its table back
// into cache.
func (c *calibrator) run() time.Duration {
	old := debug.SetGCPercent(-1) // returns once no GC cycle is running
	c.pass()
	d := c.pass()
	debug.SetGCPercent(old)
	return d
}

// pass times one pass of the kernel.
func (c *calibrator) pass() time.Duration {
	start := time.Now()
	x := c.x
	for i := 0; i < calibOps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.table[x%calibKeys] += x
	}
	c.x = x
	return time.Since(start)
}

// rescaleRate and rescaleSeconds return a rate or a duration measured
// next to a kernel pass of length k as it would read on the reference
// host.
func rescaleRate(rate float64, k time.Duration) float64 {
	return rate * float64(k) / float64(calibRef)
}

func rescaleSeconds(s float64, k time.Duration) float64 {
	return s * float64(calibRef) / float64(k)
}
