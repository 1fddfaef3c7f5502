//go:build !purego

package dense

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// cpuReports says whether this CPU and OS run the tile body for isa: the Go
// body always, the AVX2 body where hasAVX2 holds, the AVX-512 body where
// hasAVX512 holds as well.
func cpuReports(isa string) bool {
	switch isa {
	case "go":
		return true
	case "avx2":
		return hasAVX2()
	case "avx512":
		return hasAVX2() && hasAVX512()
	}
	return false
}

// TestCPUFeaturesMatchOS holds the CPUID probes to what Linux reports in
// /proc/cpuinfo, which lists a vector extension only where the kernel saves
// its registers: a probe that missed AVX-512 would leave its body untested
// and unused, and eachBody could not tell.
func TestCPUFeaturesMatchOS(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("/proc/cpuinfo is Linux's")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	var flags []string
	for _, line := range strings.Split(string(info), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = strings.Fields(list)
			break
		}
	}
	has := func(names ...string) bool {
		for _, n := range names {
			if !slices.Contains(flags, n) {
				return false
			}
		}
		return true
	}
	for _, c := range []struct {
		name      string
		probe, os bool
	}{
		{"AVX2 and FMA", hasAVX2(), has("avx2", "fma")},
		{"AVX512F", hasAVX512(), has("avx512f")},
	} {
		if c.probe != c.os {
			t.Errorf("%s: CPUID probe says %v, /proc/cpuinfo says %v", c.name, c.probe, c.os)
		}
	}
}
