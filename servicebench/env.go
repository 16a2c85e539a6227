package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// envStamp describes where a result was measured. WAL and fsync figures are
// this machine's filesystem's, not a storage device's.
type envStamp struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    int     `json:"seconds"`
	Trace      bool    `json:"trace"`
	Quick      bool    `json:"quick"`
	DataFS     string  `json:"data_fs"`
	FsyncUS    float64 `json:"fsync_median_us"`
	FsyncNote  string  `json:"fsync_note"`
	ClientConn int     `json:"client_conns"`
}

func stamp(dir string, sp spec, seed uint64, seconds int, trace, quick bool) envStamp {
	fsync, err := fsyncCost(dir, 32)
	note := "median of 32 4KiB write+fsync pairs in the data dir's filesystem"
	if err != nil {
		note = "fsync probe failed: " + err.Error()
	}
	return envStamp{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(),
		Workload: sp.name, Seed: seed, Seconds: seconds, Trace: trace, Quick: quick,
		DataFS: fsType(dir), FsyncUS: fsync, FsyncNote: note, ClientConn: clientConns,
	}
}

// commit returns the VCS revision the binary was built from, when the build
// could see one.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
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

// fsType names the filesystem holding dir by its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794C7630: "overlayfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// fsyncCost returns the median microseconds of k 4 KiB write+fsync pairs on
// a scratch file in dir.
func fsyncCost(dir string, k int) (float64, error) {
	f, err := os.CreateTemp(dir, "fsync-probe-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 4096)
	us := make([]float64, 0, k)
	for range k {
		t0 := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(us), nil
}

// resetPeakRSS lowers the process's resident-set high-water mark to its
// current resident set, so that the next peakRSSMB covers only what follows.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
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
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// hostCPU returns the machine's CPU time stolen by the hypervisor and its
// total CPU time so far, in clock ticks, from the first line of /proc/stat.
func hostCPU() (steal, total uint64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice]:
	// guest time is already counted in user and nice.
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// makeTempDir creates a fresh directory under workdir for one run's data.
func makeTempDir(workdir, pattern string) (string, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(workdir, pattern)
}

// removeTree removes dir if it is set; errors are reported on stderr.
func removeTree(dir string) {
	if dir == "" {
		return
	}
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintf(os.Stderr, "servicebench: remove %s: %v\n", filepath.Base(dir), err)
	}
}
