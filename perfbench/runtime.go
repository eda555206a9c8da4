package main

import (
	"math"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	mGCCycles   = "/gc/cycles/total:gc-cycles"
	mAllocBytes = "/gc/heap/allocs:bytes"
	mLiveHeap   = "/gc/heap/live:bytes"
	mSchedLat   = "/sched/latencies:seconds"
)

// rtSample is one reading of the runtime counters the benchmark reports.
type rtSample struct {
	gcCycles, allocBytes uint64
	schedLat             *metrics.Float64Histogram
	cpu                  time.Duration // process user+system CPU time
	steal, ticks         uint64        // machine-wide stolen and total CPU ticks
}

func readRuntime() rtSample {
	ms := []metrics.Sample{{Name: mGCCycles}, {Name: mAllocBytes}, {Name: mSchedLat}}
	metrics.Read(ms)
	s := rtSample{
		gcCycles:   ms[0].Value.Uint64(),
		allocBytes: ms[1].Value.Uint64(),
		schedLat:   ms[2].Value.Float64Histogram(),
		cpu:        processCPU(),
	}
	s.steal, s.ticks = machineTicks()
	return s
}

// machineTicks reads the machine-wide CPU tick counters of /proc/stat: the
// ticks the hypervisor took from this virtual machine ("steal") and all
// ticks. Both read 0 where the file is missing.
func machineTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	return statTicks(string(data))
}

// statTicks parses the aggregate "cpu" line that opens /proc/stat.
func statTicks(stat string) (steal, total uint64) {
	line, _, _ := strings.Cut(stat, "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		// user nice system idle iowait irq softirq steal; guest time is
		// already counted in user and nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// processCPU is the user+system CPU time the process has used. A failed
// getrusage reads as zero, which loadgen.cpu_share reports as an empty base
// and the stationarity check as an unsteady window, never as a wrong rate.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuThirds reads the process CPU time at the start of a window, at its
// two inner third boundaries and at its end. The stationarity check takes
// work rates per CPU second rather than per wall second: the wall rate also
// moves when another process on the machine starts or stops taking CPU,
// which says nothing about the workload, while a workload that drains into
// idle traffic or grows its per-operation cost spends more CPU per unit of
// work either way.
type cpuThirds struct {
	marks [3]time.Duration
	stop  chan struct{}
	wg    sync.WaitGroup
}

func watchCPUThirds(start time.Time, window time.Duration) *cpuThirds {
	c := &cpuThirds{stop: make(chan struct{})}
	c.marks[0] = processCPU()
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for i := 1; i < len(c.marks); i++ {
			t := time.NewTimer(time.Until(start.Add(time.Duration(i) * window / 3)))
			select {
			case <-c.stop:
				t.Stop()
				return
			case <-t.C:
			}
			c.marks[i] = processCPU()
		}
	}()
	return c
}

// done reads the end of the window, waits for the sampler and returns the
// CPU time spent in the first and in the last third. A boundary the window
// ended before counts as the end.
func (c *cpuThirds) done() [2]time.Duration {
	end := processCPU()
	close(c.stop)
	c.wg.Wait()
	for i := 1; i < len(c.marks); i++ {
		if c.marks[i] == 0 {
			c.marks[i] = end
		}
	}
	return [2]time.Duration{c.marks[1] - c.marks[0], end - c.marks[2]}
}

// rtWindow is what the runtime did between two readings.
type rtWindow struct {
	gcCycles, allocBytes uint64
	pauseP99, schedP99   float64 // seconds
	pauses               int     // GC pauses the p99 is taken over
	cpu                  time.Duration
	steal                float64 // share of the machine's CPU ticks stolen
	peakLive             uint64
}

func runtimeDelta(a, b rtSample, peakLive uint64) rtWindow {
	w := rtWindow{
		gcCycles:   b.gcCycles - a.gcCycles,
		allocBytes: b.allocBytes - a.allocBytes,
		schedP99:   histQuantile(a.schedLat, b.schedLat, 0.99),
		cpu:        b.cpu - a.cpu,
		peakLive:   peakLive,
	}
	if b.ticks > a.ticks {
		w.steal = float64(b.steal-a.steal) / float64(b.ticks-a.ticks)
	}
	// Exact per-cycle pause times, most recent first; the runtime keeps the
	// last 256, which covers all or the latest part of the window.
	var gs debug.GCStats
	debug.ReadGCStats(&gs)
	n := min(int(w.gcCycles), len(gs.Pause))
	ps := make([]float64, n)
	for i := range ps {
		ps[i] = gs.Pause[i].Seconds()
	}
	sort.Float64s(ps)
	w.pauseP99, w.pauses = percentile(ps, 0.99).Value, n
	return w
}

// histQuantile is the q-quantile of the observations added to a runtime
// histogram between readings a and b, interpolated linearly within the
// bucket that holds it. An infinite bucket edge is replaced by the finite
// one. An empty window reports 0.
func histQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	delta := make([]uint64, len(b.Counts))
	for i := range b.Counts {
		delta[i] = b.Counts[i] - a.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range delta {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := b.Buckets[i], b.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = hi
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return b.Buckets[len(b.Buckets)-1]
}

// heapWatch samples the live heap on a ticker until stopped and keeps the
// peak: the live heap after the latest GC mark, so the figure tracks what
// the program retains rather than when garbage happens to be collected.
type heapWatch struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func watchHeap(every time.Duration) *heapWatch {
	h := &heapWatch{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: mLiveHeap}}
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// done stops the sampler, waits for it, and returns the peak in bytes.
func (h *heapWatch) done() uint64 {
	close(h.stop)
	h.wg.Wait()
	return h.peak
}
