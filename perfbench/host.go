package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostContext is the machine a measurement was taken on.
type hostContext struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func readHostContext() hostContext {
	return hostContext{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or
// "unknown" where the file does not exist.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTicks returns the machine's stolen and total CPU ticks from the
// first line of /proc/stat (zeros where it does not exist). Steal is
// time a virtual CPU was ready but the hypervisor ran something else:
// on a shared host it is the main source of run-to-run wall-time noise,
// so the report prints its share of each measured window.
func cpuTicks() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user..steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// procSample is one reading of the process's cumulative host counters.
type procSample struct {
	wall       time.Time
	cpu        time.Duration // user + system CPU of the whole process
	allocBytes uint64
	allocObjs  uint64
	gcCycles   uint64
	gcCPU      float64 // estimated GC CPU seconds
	totalCPU   float64 // estimated total CPU seconds (runtime's view)
	gcPause    time.Duration
	steal      uint64 // machine CPU ticks stolen by the hypervisor
	ticks      uint64 // machine CPU ticks in total
}

var metricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// sampler reads procSamples without allocating per read.
type sampler struct {
	ms []metrics.Sample
}

func newSampler() *sampler {
	s := &sampler{ms: make([]metrics.Sample, len(metricNames))}
	for i, n := range metricNames {
		s.ms[i].Name = n
	}
	return s
}

// allocBytes reads only the cumulative heap allocation counter — cheap
// enough to bracket a single layer call.
func (s *sampler) allocBytes() uint64 {
	metrics.Read(s.ms[:1])
	return s.ms[0].Value.Uint64()
}

func (s *sampler) read() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(s.ms)
	steal, ticks := cpuTicks()
	return procSample{
		steal:      steal,
		ticks:      ticks,
		wall:       time.Now(),
		cpu:        processCPU(),
		allocBytes: s.ms[0].Value.Uint64(),
		allocObjs:  s.ms[1].Value.Uint64(),
		gcCycles:   s.ms[2].Value.Uint64(),
		gcCPU:      s.ms[3].Value.Float64(),
		totalCPU:   s.ms[4].Value.Float64(),
		gcPause:    time.Duration(ms.PauseTotalNs),
	}
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MB (10^6
// bytes, like alloc_mb_per_run).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}
