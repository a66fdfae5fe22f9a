package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"vdce"
	"vdce/internal/core"
)

// counters are the process-wide totals a window measures the change of.
type counters struct {
	at             time.Time
	cpu            time.Duration // user+sys CPU of the process
	mallocs, bytes uint64        // heap allocations and bytes allocated
	gcCPU          float64       // runtime/metrics GC CPU seconds, updated as each GC cycle ends
	cache          core.RankCacheStats
}

func readCounters(env *vdce.Environment) counters {
	c := counters{cpu: processCPU(), cache: cacheStats(env)}
	c.mallocs, c.bytes = memCounters()
	c.gcCPU = gcCPUSeconds()
	c.at = time.Now()
	return c
}

// measurement is what one timed window measured.
type measurement struct {
	start, end time.Time
	delta      counters  // change of the counters over the window
	latencyMs  []float64 // submit call -> terminal stamp, per successful app
	perClient  []int     // successful completions per client
	listMs     []float64 // GET /v1/jobs page handler times
}

func measure(before, after counters) measurement {
	return measurement{start: before.at, end: after.at, delta: counters{
		cpu:     after.cpu - before.cpu,
		mallocs: after.mallocs - before.mallocs,
		bytes:   after.bytes - before.bytes,
		gcCPU:   after.gcCPU - before.gcCPU,
		cache: core.RankCacheStats{
			Hits:   after.cache.Hits - before.cache.Hits,
			Misses: after.cache.Misses - before.cache.Misses,
		},
	}}
}

func (m *measurement) apps() int { return len(m.latencyMs) }

func (m *measurement) appsPerSec() float64 {
	return float64(m.apps()) / m.end.Sub(m.start).Seconds()
}

// perApp divides a window total by the apps completed in it.
func (m *measurement) perApp(total float64) float64 {
	return total / float64(max(m.apps(), 1))
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func memCounters() (mallocs, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64()
}

func cacheStats(env *vdce.Environment) core.RankCacheStats {
	var sum core.RankCacheStats
	for _, s := range env.Sites {
		c := s.CacheStats()
		sum.Hits += c.Hits
		sum.Misses += c.Misses
	}
	return sum
}

// peakRSSMiB reads VmHWM, the process's peak resident set, in MiB.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
