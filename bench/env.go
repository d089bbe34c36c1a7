package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// environment is the block every output file carries, so a figure can be
// traced to the machine, toolchain and commit that produced it.
type environment struct {
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	LLCBytes   int64   `json:"llc_bytes"`
	Seed       int64   `json:"seed"`
	Workload   string  `json:"workload"`
	Params     any     `json:"workload_params"`
	Clients    int     `json:"clients"`
	Seconds    float64 `json:"measure_seconds"`
	WallS      float64 `json:"wall_clock_s"`
	Note       string  `json:"note"`
}

// sandboxNote goes into every output: CSV bytes and chunk spills never
// leave memory or the page cache here.
const sandboxNote = "CSV bytes and chunk spills stay in memory / the OS page cache: figures are the sandbox's, not a storage device's"

func newEnvironment(workload string, seed int64, seconds float64, params any) environment {
	return environment{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		LLCBytes:   llcBytes(),
		Seed:       seed,
		Workload:   workload,
		Params:     params,
		Clients:    clients(),
		Seconds:    seconds,
		Note:       sandboxNote,
	}
}

// clients is the thread and client count of every workload:
// min(nproc, 4).
func clients() int { return min(runtime.NumCPU(), 4) }

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the revision the go tool stamped into the binary (what
// `git rev-parse HEAD` printed at build time); "unknown" when the sources
// were not built inside a git work tree.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// llcBytes is the size of the largest cache level of cpu0, 0 if unknown.
func llcBytes() int64 {
	sizes, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*/size")
	var best int64
	for _, p := range sizes {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(b))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if n, err := strconv.ParseInt(s, 10, 64); err == nil && n*mult > best {
			best = n * mult
		}
	}
	return best
}

// peakRSSMB is VmHWM of this process in MB, 0 if /proc is unreadable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) >= 1 {
				if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}
