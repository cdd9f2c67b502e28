package main

import (
	"runtime"
	"syscall"
	"time"
)

// hostMark is a reading of the host-side meters at one instant.
type hostMark struct {
	wall    time.Time
	cpu     time.Duration // process user+sys, so concurrent GC is paid for
	mallocs uint64
	bytes   uint64
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// windowStart collects garbage left by set-up, then reads the meters; the
// stop-the-world ReadMemStats comes first so its cost stays outside.
func windowStart() hostMark {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostMark{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, cpu: processCPU(), wall: time.Now()}
}

// hostDelta is what one timed window cost the host.
type hostDelta struct {
	wall, cpu     time.Duration
	allocs, bytes uint64
}

func (m hostMark) stop() hostDelta {
	wall, cpu := time.Since(m.wall), processCPU()-m.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostDelta{wall: wall, cpu: cpu, allocs: ms.Mallocs - m.mallocs, bytes: ms.TotalAlloc - m.bytes}
}

// liveHeapMB is the heap still reachable after a forced collection: state
// or work moved into memory shows here.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// timeCalls runs fn (which performs n calls of the thing measured) and
// reports process CPU ns and heap allocations per call, the same meters
// the timed windows use.
func timeCalls(n int, fn func()) (ns, allocs float64) {
	m := windowStart()
	fn()
	d := m.stop()
	return float64(d.cpu.Nanoseconds()) / float64(n), float64(d.allocs) / float64(n)
}

// refNominal is the reference kernel's CPU time on the box the first
// baseline was taken on, at a quiet moment. It only fixes the scale of the
// calibrated numbers.
const refNominal = 55 * time.Millisecond

// refKernel is a fixed piece of work that never changes with the program
// under test: integer hashing plus dependent loads walking a 16 MB table,
// no allocation inside the timed part. Its CPU time says how fast this box
// is right now. On the shared 2-core box every host-clock number drifts by
// 20-30% over an hour — the whole machine slows down and speeds up — and
// the kernel drifts with them, so each run's host-clock end-to-end metrics
// are scaled by refNominal ÷ the run's median kernel time (README, Noise).
func refKernel() time.Duration {
	const size = 1 << 21 // 16 MB of uint64
	table := make([]uint64, size)
	x := uint64(88172645463325252)
	for i := range table {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		table[i] = x
	}
	start := processCPU()
	var sum uint64
	idx := uint64(0)
	for i := 0; i < 10_000_000; i++ {
		v := table[idx&(size-1)]
		h := v * 0x9E3779B97F4A7C15
		h ^= h >> 29
		sum += h
		idx = h
	}
	d := processCPU() - start
	if sum == 42 {
		panic("refKernel: unreachable, keeps sum alive")
	}
	return d
}
