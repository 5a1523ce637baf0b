package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/load"
)

// host is the machine a run measured on.  Every latency is this host's:
// on tmpfs an fsync is free, and in a container the disk is shared.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Affinity   int    `json:"affinity"`
	Cpuset     string `json:"cpuset"`
	Go         string `json:"go"`
	JournalFS  string `json:"journal_fs"`
}

func hostFacts(dir string) host {
	f := load.RunnerFacts()
	h := host{NumCPU: f.NumCPU, GOMAXPROCS: f.GOMAXPROCS, Affinity: f.Affinity, Go: runtime.Version(),
		CPU: procField("/proc/cpuinfo", "model name"), Cpuset: procField("/proc/self/status", "Cpus_allowed_list"),
		JournalFS: fsType(dir)}
	return h
}

// procField returns the value of the first "name: value" line of a
// /proc file, or "unknown".
func procField(path, name string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if ok && strings.TrimSpace(k) == name {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir, by statfs magic number.
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
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	case 0x65735546:
		return "fuse"
	}
	return "0x" + strconv.FormatUint(uint64(uint32(st.Type)), 16)
}
