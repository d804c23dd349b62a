package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostFacts describes where a run's numbers come from; it is printed
// with every run.
type hostFacts struct {
	nproc, gomaxprocs int
	goVersion, kernel string
	fsType            string // of the directory the journal and artefacts live in
}

func readHostFacts(outDir string) hostFacts {
	h := hostFacts{nproc: runtime.NumCPU(), gomaxprocs: runtime.GOMAXPROCS(0), goVersion: runtime.Version(), kernel: "unknown", fsType: "unknown"}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.kernel = strings.TrimSpace(string(b))
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(outDir, &st); err == nil {
		h.fsType = fsName(int64(st.Type))
	}
	return h
}

// fsName names the common statfs magic numbers; tmpfs matters most,
// because an fsync there costs nothing and the journal numbers lie.
func fsName(magic int64) string {
	switch magic {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x01021994:
		return "tmpfs"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("0x%x", magic)
}

// cpuTimes is one reading of the first line of /proc/stat, in USER_HZ
// ticks.
type cpuTimes struct{ steal, total float64 }

func readCPUTimes() (cpuTimes, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal guest guest_nice
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}, fmt.Errorf("unexpected /proc/stat head %q", line)
	}
	var c cpuTimes
	for i, s := range f[1:9] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return cpuTimes{}, fmt.Errorf("unparseable /proc/stat field %q", s)
		}
		c.total += v
		if i == 7 {
			c.steal = v
		}
	}
	return c, nil
}

// stealShare is the share of all CPU time between two readings that
// the hypervisor gave to someone else.
func stealShare(from, to cpuTimes) float64 {
	if to.total <= from.total {
		return 0
	}
	return (to.steal - from.steal) / (to.total - from.total)
}

// selfCPUMS is the benchmark process's own user+system CPU time.
func selfCPUMS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1000 + float64(t.Usec)/1000 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// fsyncProbeUS writes and fsyncs n small records to a file in dir and
// returns the median microseconds per record: what one journal append
// costs on this disk, measured from outside the program.
func fsyncProbeUS(dir string, n int) (float64, error) {
	path := filepath.Join(dir, "fsync-probe")
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer os.Remove(path)
	defer f.Close()
	rec := []byte(strings.Repeat("x", 255) + "\n")
	us := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t := time.Now()
		if _, err := f.Write(rec); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t))/float64(time.Microsecond))
	}
	return median(us), nil
}
