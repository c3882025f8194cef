package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// runMeta records the conditions a run was measured under.
func runMeta(cfg config, fs string, fsync bool) map[string]any {
	policy := "off"
	if fsync {
		policy = "on"
	}
	return map[string]any{
		"workload":              cfg.workload,
		"seed":                  cfg.seed,
		"seconds":               cfg.seconds.Seconds(),
		"trace":                 cfg.trace,
		"clients":               cfg.clients,
		"nproc":                 runtime.NumCPU(),
		"gomaxprocs":            runtime.GOMAXPROCS(0),
		"go_version":            runtime.Version(),
		"cpu_model":             cpuModel(),
		"store_fs":              fs,
		"fsync":                 policy,
		"non_test_lines_by_pkg": nonTestLines("."),
	}
}

// fsMagic names the filesystems a store directory is likely to be on.
var fsMagic = map[int64]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x794C7630: "overlayfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
	0x2FC12FC1: "zfs",
}

// fsType names the filesystem holding dir.
func fsType(dir string) (string, error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "", fmt.Errorf("statfs %s: %w", dir, err)
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name, nil
	}
	return fmt.Sprintf("0x%x", st.Type), nil
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// nonTestLines counts the lines of non-test Go files per package
// directory of the module rooted at root, skipping this benchmark.
func nonTestLines(root string) map[string]int {
	out := make(map[string]int)
	filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "perfbench" || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		n := 0
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			n++
		}
		out[filepath.ToSlash(filepath.Dir(path))] += n
		return nil
	})
	total := 0
	for _, n := range out {
		total += n
	}
	out["total"] = total
	return out
}
