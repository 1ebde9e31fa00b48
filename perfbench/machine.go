package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// machine identifies where and on what a result was measured. Results are
// only comparable when the fields of sameMachine agree.
type machine struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	DataFS     string `json:"data_fs"` // filesystem of the service data dir
	Seed       int64  `json:"seed"`
	// Source is the sha256 of the program's sources (every .go, go.mod
	// and go.sum outside perfbench): the checkout is not a git
	// repository, so this stands in for the commit.
	Source   string  `json:"source_sha256"`
	Workload string  `json:"workload"`
	Trace    bool    `json:"trace"`
	Seconds  float64 `json:"seconds"`
}

// sameMachine reports why two records were measured on different
// machines, or "" when they were not.
func sameMachine(a, b machine) string {
	switch {
	case a.CPU != b.CPU:
		return fmt.Sprintf("CPU %q vs %q", a.CPU, b.CPU)
	case a.NProc != b.NProc:
		return fmt.Sprintf("nproc %d vs %d", a.NProc, b.NProc)
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Sprintf("GOMAXPROCS %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS)
	case a.Go != b.Go:
		return fmt.Sprintf("Go %s vs %s", a.Go, b.Go)
	case a.Kernel != b.Kernel:
		return fmt.Sprintf("kernel %s vs %s", a.Kernel, b.Kernel)
	case a.DataFS != b.DataFS:
		return fmt.Sprintf("data filesystem %s vs %s", a.DataFS, b.DataFS)
	}
	return ""
}

func readMachine(cfg config) (machine, error) {
	src, err := sourceDigest(cfg.root)
	if err != nil {
		return machine{}, err
	}
	fsType, err := filesystemType(workDir(cfg.root))
	if err != nil {
		return machine{}, err
	}
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return machine{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Kernel:     strings.TrimSpace(string(kernel)),
		DataFS:     fsType,
		Seed:       cfg.seed,
		Source:     src,
		Workload:   cfg.workload,
		Trace:      cfg.trace,
		Seconds:    cfg.seconds,
	}, nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// filesystemType names the filesystem holding dir, creating dir first.
func filesystemType(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "", fmt.Errorf("statfs %s: %w", dir, err)
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x01021994: "tmpfs",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x794C7630: "overlayfs",
		0x6969:     "nfs",
		0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n, nil
	}
	return fmt.Sprintf("0x%x", st.Type), nil
}

// sourceDigest hashes the program's sources under root in path order,
// skipping the benchmark's own directory, build output and dot-dirs.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") && d.Name() != "go.mod" && d.Name() != "go.sum" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// workDir is where runs keep scratch state: service data dirs and results.
func workDir(root string) string {
	return filepath.Join(root, ".bench_build", "perfbench")
}

// cpuTicks reads each vCPU's busy and stolen time, in clock ticks, from
// /proc/stat. Steal is time the hypervisor ran something else while the
// vCPU had work.
func cpuTicks() ([]vcpuTicks, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil, err
	}
	var out []vcpuTicks
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || len(f[0]) < 4 || !strings.HasPrefix(f[0], "cpu") {
			continue // the machine-wide "cpu" line and non-cpu lines
		}
		var v [8]uint64
		for i := range v {
			if v[i], err = strconv.ParseUint(f[i+1], 10, 64); err != nil {
				return nil, fmt.Errorf("parsing /proc/stat: %w", err)
			}
		}
		// user nice system idle iowait irq softirq steal
		out = append(out, vcpuTicks{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]})
	}
	if len(out) == 0 {
		return nil, errors.New("no per-cpu lines in /proc/stat")
	}
	return out, nil
}

type vcpuTicks struct{ busy, steal uint64 }

// stealMeter measures how much of its time the critical path lost to the
// hypervisor over an interval.
type stealMeter []vcpuTicks

func startSteal() (stealMeter, error) { return cpuTicks() }

// share returns the steal share, stolen / (busy + stolen), of the
// most-stolen vCPU among those that had work for at least half as long as
// the busiest one. A single-threaded op runs on the busiest vCPU, and the
// garbage collector's brief work elsewhere must not count; when several
// vCPUs are busy, the most-stolen one holds the others up.
func (m stealMeter) share() (float64, error) {
	now, err := cpuTicks()
	if err != nil {
		return 0, err
	}
	if len(now) != len(m) {
		return 0, errors.New("the number of vCPUs changed")
	}
	runnable := make([]float64, len(m))
	busiest := 0.0
	for i := range m {
		runnable[i] = float64(now[i].busy - m[i].busy + now[i].steal - m[i].steal)
		busiest = max(busiest, runnable[i])
	}
	share := 0.0
	for i := range m {
		if runnable[i] > 0 && runnable[i] >= busiest/2 {
			share = max(share, float64(now[i].steal-m[i].steal)/runnable[i])
		}
	}
	return share, nil
}

// resetPeakRSS restarts VmHWM of process pid ("self" for this process) from
// its current resident set, so a window's peak can be read on its own.
func resetPeakRSS(pid string) error {
	return os.WriteFile(filepath.Join("/proc", pid, "clear_refs"), []byte("5"), 0)
}

// peakRSSMiB reads VmHWM, the peak resident set size, of process pid
// ("self" for this process).
func peakRSSMiB(pid string) (float64, error) {
	f, err := os.Open(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
