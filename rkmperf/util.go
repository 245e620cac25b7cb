package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	rkmmetrics "repro/internal/metrics"
	"repro/internal/value"
)

// quantile returns the q-quantile of ds by the nearest-rank rule (ds is
// sorted in place); 0 for an empty sample.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(q*float64(len(ds))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(ds) {
		i = len(ds) - 1
	}
	return ds[i]
}

func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sortedKeys(m map[string]value.Value) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedCopy(xs []string) []string {
	out := append([]string(nil), xs...)
	sort.Strings(out)
	return out
}

// diffMultisets describes the first difference between two sorted
// multisets, "" when they are equal.
func diffMultisets(got, want []string) string {
	i, j := 0, 0
	for i < len(got) || j < len(want) {
		switch {
		case j == len(want) || (i < len(got) && got[i] < want[j]):
			return "unexpected " + got[i]
		case i == len(got) || want[j] < got[i]:
			return "missing " + want[j]
		}
		i++
		j++
	}
	return ""
}

// counter sums the samples of a counter or gauge family in reg.
func counter(reg *rkmmetrics.Registry, name string) float64 {
	total := 0.0
	for _, fam := range reg.Gather() {
		if fam.Name != name {
			continue
		}
		for _, s := range fam.Samples {
			if s.Hist != nil {
				total += float64(s.Hist.Count)
			} else {
				total += s.Value
			}
		}
	}
	return total
}

// histSum sums the observations of a histogram family in reg.
func histSum(reg *rkmmetrics.Registry, name string) float64 {
	total := 0.0
	for _, fam := range reg.Gather() {
		if fam.Name != name {
			continue
		}
		for _, s := range fam.Samples {
			if s.Hist != nil {
				total += s.Hist.Sum
			}
		}
	}
	return total
}

// cpuSample reads the Go runtime's CPU accounting: total and GC seconds.
func cpuSample() (total, gc float64) {
	ss := []metrics.Sample{
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(ss)
	if ss[0].Value.Kind() == metrics.KindFloat64 {
		total = ss[0].Value.Float64()
	}
	if ss[1].Value.Kind() == metrics.KindFloat64 {
		gc = ss[1].Value.Float64()
	}
	return total, gc
}

// liveHeapMB is the live heap after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}

// cpuModel reads the processor model name, "unknown" when unavailable.
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

// fsType names the filesystem holding dir from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x9123683E:
		return "btrfs"
	case 0x6969:
		return "nfs"
	}
	return "unknown"
}
