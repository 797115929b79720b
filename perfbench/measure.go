package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// pass is one closed-loop unit of a workload: its wall time, the
// executions it completed and what it allocated.
type pass struct {
	wall   time.Duration
	cpu    time.Duration // user plus system time of every thread
	execs  int
	bytes  uint64
	allocs uint64
}

// passTimer measures one pass, allocations included. Allocation counts
// are process-wide, so they cover every worker goroutine. Every pass
// starts from a collected heap, so no pass pays for its predecessor's
// garbage.
type passTimer struct {
	start time.Time
	cpu   time.Duration
	ms    runtime.MemStats
}

func startPass() *passTimer {
	t := &passTimer{}
	runtime.GC()
	runtime.ReadMemStats(&t.ms)
	t.cpu = processCPU()
	t.start = time.Now()
	return t
}

// stop ends the pass.
func (t *passTimer) stop(execs int) pass {
	wall := time.Since(t.start)
	cpu := processCPU() - t.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return pass{wall: wall, cpu: cpu, execs: execs, bytes: ms.TotalAlloc - t.ms.TotalAlloc, allocs: ms.Mallocs - t.ms.Mallocs}
}

// processCPU is the user plus system time the process has used, on
// every thread, garbage collector included.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// A workload repeats its set-up at least setupMinReps times and until
// setupMinTime has passed; setup_s is the median. Short set-ups are thus
// repeated more, so their median is as steady as a long one's.
const (
	setupMinReps = 5
	setupMinTime = time.Second
)

// measureSetup runs setup as above, each repetition from a collected
// heap like a pass, and returns the median time in seconds.
func measureSetup(setup func() error) (float64, error) {
	var times []float64
	start := time.Now()
	for rep := 0; rep < setupMinReps || time.Since(start) < setupMinTime; rep++ {
		t0 := startClean()
		if err := setup(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), nil
}

// startClean collects the heap and returns the time, so each set-up and
// each measurement loop starts from the same state.
func startClean() time.Time {
	runtime.GC()
	return time.Now()
}

// endToEnd turns the set-up time and the passes into the end-to-end
// metrics. Every pass figure is a median over passes, so one slow pass
// moves nothing.
func endToEnd(setup float64, passes []pass) map[string]metric {
	var rate, wall, cpu, mb, allocs []float64
	for _, p := range passes {
		if p.execs == 0 {
			continue
		}
		e := float64(p.execs)
		rate = append(rate, e/p.wall.Seconds())
		wall = append(wall, p.wall.Seconds())
		cpu = append(cpu, float64(p.cpu)/e/1e6)
		mb = append(mb, float64(p.bytes)/e/1e6)
		allocs = append(allocs, float64(p.allocs)/e)
	}
	return map[string]metric{
		"setup_s":           {setup, "s"},
		"execs_per_s":       {median(rate), "1/s"},
		"wall_s":            {median(wall), "s"},
		"cpu_ms_per_exec":   {median(cpu), "ms"},
		"alloc_mb_per_exec": {median(mb), "MB"},
		"allocs_per_exec":   {median(allocs), "count"},
	}
}

// median of xs (0 when empty); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// durQuantile is quantile over sorted nanosecond durations, in the
// given unit.
func durQuantile(sorted []int64, q float64, unit time.Duration) float64 {
	if len(sorted) == 0 {
		return 0
	}
	xs := make([]float64, len(sorted))
	for i, d := range sorted {
		xs[i] = float64(d) / float64(unit)
	}
	return quantile(xs, q)
}

// peakRSSMB reads the process's peak resident set size (VmHWM) from
// /proc; 0 where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// splitmix derives an independent sub-seed for item i of a stream.
func splitmix(seed int64, i int) int64 {
	x := uint64(seed) + 0x9e3779b97f4a7c15*uint64(i+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}
