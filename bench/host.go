package main

// What the benchmark reads from the host: CPU time, peak memory, cache
// sizes, and a calibration loop that tells a busy host from a slow change.

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("bench: getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status: %v", sc.Err())
}

// cacheKiB reads a CPU cache size from sysfs (index 2 = L2, 3 = L3);
// 0 when the host does not say.
func cacheKiB(index int) int {
	b, err := os.ReadFile(fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/size", index))
	if err != nil {
		return 0
	}
	s := strings.TrimSpace(string(b))
	mult := 1
	switch {
	case strings.HasSuffix(s, "K"):
		s = strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		s, mult = strings.TrimSuffix(s, "M"), 1024
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0
	}
	return n * mult
}

var calibTable = func() []uint32 {
	t := make([]uint32, 1<<14) // 64 KiB: L1-resident
	x := uint32(2463534242)
	for i := range t {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		t[i] = x
	}
	return t
}()

var calibSink uint32

// calibMS times a fixed chain of dependent table lookups. It is the
// benchmark's own code, so no change to the repository moves it: a pass
// whose calibration is slow ran on a busy host.
func calibMS() float64 {
	start := time.Now()
	x := uint32(1)
	for i := 0; i < 1<<20; i++ {
		x = calibTable[x&(1<<14-1)] + uint32(i)
	}
	calibSink = x
	return msSince(start)
}
