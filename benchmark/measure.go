package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// result is the JSON line a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

const mb = 1 << 20

// minOps is the smallest timed-op count whose nearest-rank p90 has ten
// samples beyond it.
const minOps = 100

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, so one slow start-up does not move it.
const setupRepeats = 3

// usage is a point-in-time reading of the process's resource counters.
type usage struct {
	at     time.Time
	cpu    time.Duration // user + system, all threads
	allocs uint64        // cumulative heap bytes allocated
	gcCPU  float64       // cumulative GC CPU seconds (estimate)
}

var usageSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(usageSamples))
	copy(s, usageSamples)
	metrics.Read(s)
	return usage{
		at:     time.Now(),
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs: s[0].Value.Uint64(),
		gcCPU:  s[1].Value.Float64(),
	}
}

// peakRSSMB is the process's maximum resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) * 1024 / mb // Linux reports KiB
}

// liveHeapMB forces a collection and returns the live heap it leaves.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / mb
}

// percentile returns the nearest-rank q-quantile of samples (sorted in
// place): the smallest value with at least q of the samples at or below
// it.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sort.Float64s(samples)
	return samples[rankIndex(len(samples), q)]
}

func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return i
}

// median returns the middle value (mean of the two middle ones for an
// even count) without reordering xs.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// opCount sizes a run's timed phase: about seconds×rate ops, rounded up
// to whole cycles of the workload's input pattern, and at least minOps.
// The count depends only on the flags, so two commits run identical op
// sequences whatever their speed.
func opCount(o options, rate float64, period int) int {
	if o.smoke {
		return period
	}
	n := int(math.Ceil(float64(o.seconds) * rate))
	if n < minOps {
		n = minOps
	}
	return (n + period - 1) / period * period
}

// timedPhase is what a run measures over its timed ops: their latencies
// and the resources used while they ran, summed over one or more timed
// segments.
type timedPhase struct {
	latenciesMS []float64
	wall        time.Duration
	cpu         time.Duration
	allocs      uint64
	gcCPU       float64 // seconds
}

// add folds one timed segment, from before to after, into the phase.
func (p *timedPhase) add(before, after usage) {
	p.wall += after.at.Sub(before.at)
	p.cpu += after.cpu - before.cpu
	p.allocs += after.allocs - before.allocs
	p.gcCPU += after.gcCPU - before.gcCPU
}

// endToEnd renders the end-to-end metrics of a finished run.
func endToEnd(setups []float64, p timedPhase) map[string]metric {
	n := float64(len(p.latenciesMS))
	lat := append([]float64(nil), p.latenciesMS...)
	return map[string]metric{
		"setup_s":         {median(setups), "s"},
		"op_p50_ms":       {percentile(lat, 0.5), "ms"},
		"op_p90_ms":       {percentile(lat, 0.9), "ms"},
		"ops_per_s":       {n / p.wall.Seconds(), "1/s"},
		"cpu_ms_per_op":   {float64(p.cpu) / float64(time.Millisecond) / n, "ms"},
		"alloc_mb_per_op": {float64(p.allocs) / mb / n, "MB"},
		"peak_rss_mb":     {peakRSSMB(), "MB"},
	}
}

// outcome tallies a run's ops.
type outcome struct {
	attempted int
	failed    map[int]bool
	errs      []string
}

// op records one attempted op and whether it failed.
func (o *outcome) op(i int, err error) {
	o.attempted++
	if err != nil {
		o.fail(i, err)
	}
}

// fail marks op i failed (a check on a replay of it can fail it late).
func (o *outcome) fail(i int, err error) {
	if o.failed == nil {
		o.failed = make(map[int]bool)
	}
	if o.failed[i] {
		return
	}
	o.failed[i] = true
	if len(o.errs) < 5 {
		o.errs = append(o.errs, fmt.Sprintf("op %d: %v", i, err))
	}
}

func (o *outcome) result(m map[string]metric) *result {
	return &result{Correct: len(o.failed) == 0, Attempted: o.attempted, Failed: len(o.failed), Metrics: m}
}

// mix64 is SplitMix64's finalizer: a bijective scrambler that turns
// (seed, stream, index) into well-spread input seeds.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// deriveSeed returns the i-th program seed of one input stream of a
// workload seed. Seeds of one stream are consecutive, so they never
// collide; streams start at well-spread bases.
func deriveSeed(seed int64, stream string, i int) int64 {
	h := mix64(uint64(seed))
	for _, c := range []byte(stream) {
		h = mix64(h ^ uint64(c))
	}
	return int64(h>>24) + int64(i) + 1
}
