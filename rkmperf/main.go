// Command rkmperf is the repository's benchmark. It runs one named workload
// in-process against the public Go API of the knowledge base, checks that
// the workload's outputs are correct, and prints its metrics as one JSON
// object on the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a traced
// run records a span around every call into a layer and reports per-layer
// metrics instead. Build and run it with run.sh from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloads maps each workload name to its constructor.
var workloads = map[string]func() benchWorkload{
	"admit-large":     func() benchWorkload { return &admitLarge{} },
	"summary-durable": func() benchWorkload { return &summaryDurable{} },
	"analyst-reads":   func() benchWorkload { return &analystReads{} },
	"hub-sharded":     func() benchWorkload { return &hubSharded{} },
}

func main() {
	opt := options{setups: 5, scale: 1}
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "workload name")
	flag.Int64Var(&opt.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&opt.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&opt.data, "data", filepath.Join(".bench_build", "data"), "directory for logs, snapshots and traces")
	flag.Parse()
	opt.trace = trace == 1
	if _, ok := workloads[opt.workload]; !ok || opt.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "rkmperf: need -workload (one of %s) and -seconds > 0\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	res, err := run(opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rkmperf: %s: %v\n", opt.workload, err)
		os.Exit(1)
	}
	for _, kv := range []map[string]any{{"env": res.env}, {"detail": res.detail()}} {
		line, _ := json.Marshal(kv)
		fmt.Println(string(line))
	}
	for _, e := range res.errors {
		fmt.Fprintf(os.Stderr, "rkmperf: check failed: %s\n", e)
	}
	line, err := json.Marshal(res.line())
	if err != nil {
		fmt.Fprintf(os.Stderr, "rkmperf: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// environment is printed with every result.
func environment(opt options, dataDir, fsync string) map[string]any {
	return map[string]any{
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"gogc":       os.Getenv("GOGC"),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"fsync":      fsync,
		"data_fs":    fsType(dataDir),
		"seed":       opt.seed,
		"workload":   opt.workload,
		"seconds":    opt.seconds,
		"trace":      opt.trace,
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
}
