package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 when empty): the
// smallest sample with at least q·n samples at or below it.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB reads the process's peak resident set (VmHWM) from
// /proc/self/status, in MiB. 0 when unavailable.
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
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// cpuTicks reads the host-wide CPU time counters of /proc/stat, in clock
// ticks: the time stolen from this machine's CPUs by the hypervisor, and
// the time they were busy or stolen (everything but idle and iowait).
// Both are 0 when /proc/stat is unavailable.
func cpuTicks() (steal, busy float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return 0, 0
		}
		if i != 4 && i != 5 {
			busy += v
		}
		if i == 8 {
			steal = v
		}
	}
	return steal, busy
}

// stealClock times an interval and the share of it the hypervisor kept
// this machine's CPUs from running: stolen ticks over busy-or-stolen
// ticks. The benchmark process is the only busy process on the machine
// while a walk runs, so the share is the walk's.
type stealClock struct {
	start         time.Time
	steal0, busy0 float64
}

func startClock() stealClock {
	s, b := cpuTicks()
	return stealClock{start: time.Now(), steal0: s, busy0: b}
}

// stop returns the wall time since start, and that time less its stolen
// share.
func (c stealClock) stop() (wall, onCPU time.Duration) {
	wall = time.Since(c.start)
	s, b := cpuTicks()
	share := 0.0
	if b > c.busy0 {
		share = (s - c.steal0) / (b - c.busy0)
	}
	return wall, time.Duration(float64(wall) * (1 - share))
}
