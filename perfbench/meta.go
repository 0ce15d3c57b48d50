package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"syscall"
)

// cgroupCPUMax is the cgroup v2 CPU quota ("max 100000" = unlimited), or
// "" where the file is absent.
func cgroupCPUMax() string {
	data, err := os.ReadFile("/sys/fs/cgroup/cpu.max")
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(data))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

func kernel() string {
	data, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(data))
}

// fsType names the filesystem holding dir; fsync on tmpfs costs nothing,
// so a result measured there says little about durability cost.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x2FC12FC1:
		return "zfs"
	}
	return "0x" + strconv.FormatUint(uint64(uint32(st.Type)), 16)
}

// stealCPU names the /proc/stat line steal is read from: the CPU the
// benchmark is pinned to (see pin.go).
var stealCPU = "cpu"

// cpuTicks reads the steal and total ticks of stealCPU from /proc/stat.
// Steal is time the hypervisor ran someone else on the CPU while this one
// had work for it: every timing of the run is longer by it.
func cpuTicks() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	var f []string
	for _, l := range strings.Split(string(data), "\n") {
		if f = strings.Fields(l); len(f) > 0 && f[0] == stealCPU {
			break
		}
	}
	if len(f) < 9 {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// stealMeter reports the share of CPU time stolen since it was started.
type stealMeter struct{ steal, total int64 }

func startSteal() stealMeter {
	s, t := cpuTicks()
	return stealMeter{s, t}
}

func (m stealMeter) pct() float64 {
	s, t := cpuTicks()
	if t == m.total {
		return 0
	}
	return 100 * float64(s-m.steal) / float64(t-m.total)
}
