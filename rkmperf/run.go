package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cypher"
	rkmmetrics "repro/internal/metrics"
	"repro/internal/trigger"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	data     string
	// setups is how many times a run sets up (setup_s is their median);
	// scale sizes the preloaded state. Tests shrink both.
	setups int
	scale  float64
}

// workload is one named traffic mix. setup builds the starting state in a
// fresh directory and is repeated opt.setups times (the last state is the
// one measured; discard releases the others); measure runs the clients
// until the runner's deadline; check verifies the outputs.
type benchWorkload interface {
	setup(r *runner, dir string) error
	discard() error
	measure(r *runner)
	check(r *runner)
	// sys is the system under test of the last set-up.
	sys() *system
	fsync() string
}

// Operation classes, each with its own latency sample.
const (
	classWrite = iota
	classRead
	classScan
	classClose
	nClasses
)

// recorder holds one client's samples. Index 0 of each array holds the
// untraced operations, index 1 the traced ones: a traced run traces a
// random half of each client's operations (random, so that no periodic
// pattern of operations is traced or skipped as a whole), so the two halves
// run on the same state at the same time and their difference is the
// tracing overhead.
type recorder struct {
	lat             [2][nClasses][]time.Duration
	rulesConsidered [2]int
	guardChecks     [2]int
	guardPasses     [2]int
	maxLate         time.Duration
}

// client is one client goroutine's handle on the run.
type client struct {
	r     *runner
	rec   *recorder
	coin  *rand.Rand // picks the traced operations
	phase int        // 1 while the current operation is traced
}

// runner drives one run: set-ups, the measured phases, checks and the
// result.
type runner struct {
	opt  options
	tr   *tracer // nil for the untraced run
	dir  string
	w    benchWorkload
	lock sync.Mutex
	recs []*recorder

	// ended is when the last client stopped, at or after the deadline.
	start, deadline, ended time.Time

	attempted, failed atomic.Int64
	errMu             sync.Mutex
	errors            []string

	setupS       []float64
	recoveryS    []float64
	checkpointMS []float64

	// Counter snapshots at the start and end of a traced run's measurement.
	snap [2]layerSnap

	heapMB float64
	env    map[string]any
}

// layerSnap holds the counters the traced run reports as deltas.
type layerSnap struct {
	cpuTotal, cpuGC        float64
	alloc                  uint64
	alertQueryS            float64
	asyncEvalS, asyncEvals float64
	groupTxs, groupSyncs   float64
	fsyncs                 float64
	walBytes               int64
	planHits, planMisses   int64
	plansCompiled          int64
}

func run(opt options) (*runner, error) {
	r := &runner{opt: opt}
	if opt.trace {
		r.tr = newTracer()
	}
	if err := os.MkdirAll(opt.data, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(opt.data, opt.workload+"-*")
	if err != nil {
		return nil, err
	}
	r.dir = dir
	defer os.RemoveAll(dir)

	r.w = workloads[opt.workload]()
	for i := 0; i < opt.setups; i++ {
		if i > 0 {
			if err := r.w.discard(); err != nil {
				return nil, fmt.Errorf("discard set-up %d: %w", i-1, err)
			}
		}
		sdir := filepath.Join(dir, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(sdir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := r.w.setup(r, sdir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
	}
	r.w.sys().traceCommits()
	r.env = environment(opt, dir, r.w.fsync())

	d := time.Duration(opt.seconds * float64(time.Second))
	if r.tr != nil {
		r.snap[0] = r.layerSnapshot()
	}
	r.start = time.Now()
	r.deadline = r.start.Add(d)
	r.w.measure(r)
	r.ended = time.Now()
	if r.tr != nil {
		r.snap[1] = r.layerSnapshot()
	}
	r.heapMB = liveHeapMB()
	r.w.check(r)
	if err := r.w.discard(); err != nil {
		r.fail(fmt.Errorf("close: %w", err))
	}
	if r.tr != nil {
		r.checkTrace()
		if err := r.tr.write(filepath.Join(opt.data, fmt.Sprintf("trace-%s-%d.jsonl", opt.workload, opt.seed))); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	return r, nil
}

func (r *runner) newClient() *client {
	rec := &recorder{}
	r.lock.Lock()
	r.recs = append(r.recs, rec)
	n := len(r.recs)
	r.lock.Unlock()
	return &client{r: r, rec: rec, coin: rand.New(rand.NewSource(r.opt.seed + int64(n)))}
}

func (r *runner) done() bool { return !time.Now().Before(r.deadline) }

func (r *runner) fail(err error) {
	r.failed.Add(1)
	r.errMu.Lock()
	if len(r.errors) < 20 {
		r.errors = append(r.errors, err.Error())
	}
	r.errMu.Unlock()
}

// check counts one correctness check; a non-nil err fails it.
func (r *runner) check(err error) {
	r.attempted.Add(1)
	if err != nil {
		r.fail(err)
	}
}

// op times one operation of class. due is when an open-loop operation was
// scheduled (latency counts from it); the zero time means now (closed
// loop). fn receives the operation's trace, nil outside the traced phase.
func (c *client) op(class int, name string, due time.Time, fn func(o *opTrace) error) {
	now := time.Now()
	if due.IsZero() {
		due = now
	} else if late := now.Sub(due); late > c.rec.maxLate {
		c.rec.maxLate = late
	}
	c.phase = 0
	var o *opTrace
	if c.r.tr != nil && c.coin.Intn(2) == 1 {
		c.phase = 1
		o = c.r.tr.begin("op." + name)
	}
	err := fn(o)
	d := time.Since(due)
	o.end()
	c.rec.lat[c.phase][class] = append(c.rec.lat[c.phase][class], d)
	c.r.attempted.Add(1)
	if err != nil {
		c.r.fail(fmt.Errorf("%s: %w", name, err))
	}
}

// note accumulates a write's rule-engine report.
func (c *client) note(rep *trigger.Report) {
	if rep == nil {
		return
	}
	c.rec.rulesConsidered[c.phase] += rep.RulesConsidered
	c.rec.guardChecks[c.phase] += rep.GuardChecks
	c.rec.guardPasses[c.phase] += rep.GuardPasses
}

func (r *runner) registry() *rkmmetrics.Registry {
	s := r.w.sys()
	if s.kb != nil {
		return s.kb.Metrics()
	}
	return s.skb.Metrics()
}

func (r *runner) layerSnapshot() layerSnap {
	reg := r.registry()
	s := layerSnap{alloc: totalAlloc()}
	s.cpuTotal, s.cpuGC = cpuSample()
	s.alertQueryS = histSum(reg, "rkm_trigger_alert_query_seconds")
	s.asyncEvalS = histSum(reg, "rkm_trigger_async_eval_seconds")
	s.asyncEvals = counter(reg, "rkm_trigger_async_eval_seconds")
	s.groupTxs = counter(reg, "rkm_wal_group_commit_txs_total")
	s.groupSyncs = counter(reg, "rkm_wal_group_commit_syncs_total")
	s.fsyncs = counter(reg, "rkm_wal_fsync_seconds") + counter(reg, "rkm_shard_wal_fsync_seconds")
	s.walBytes = dirBytes(r.dir)
	ps := r.w.sys().plans.Stats()
	s.planHits, s.planMisses = ps.Hits, ps.Misses
	s.plansCompiled = cypher.PlansCompiled()
	return s
}

// samples merges the clients' samples of one phase and class.
func (r *runner) samples(phase, class int) []time.Duration {
	var out []time.Duration
	for _, rec := range r.recs {
		out = append(out, rec.lat[phase][class]...)
	}
	return out
}

// checkTrace verifies that the traced phase's spans account for its
// operations: no span's children outlast it, and the per-layer self times
// sum to the operations' traced time.
func (r *runner) checkTrace() {
	st := r.tr.aggregate()
	var sum time.Duration
	for name, d := range st.self {
		if d < 0 {
			r.check(fmt.Errorf("trace: span %s has negative self time %v", name, d))
			return
		}
		sum += d
	}
	if st.opTime <= 0 {
		r.check(fmt.Errorf("trace: no traced operations"))
		return
	}
	if gap := math.Abs(float64(sum-st.opTime)) / float64(st.opTime); gap > 0.001 {
		r.check(fmt.Errorf("trace: self times sum to %v of %v traced", sum, st.opTime))
		return
	}
	r.check(nil)
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *runner) line() result {
	res := result{
		Correct:   r.failed.Load() == 0,
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load(),
		Metrics:   map[string]metric{},
	}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	if r.tr == nil {
		r.endToEnd(res.Metrics)
	} else {
		r.perLayer(res.Metrics)
	}
	return res
}

// detail describes the run beside its result: sample counts per class
// and phase, how late the open-loop generators ran, and the first errors.
func (r *runner) detail() map[string]any {
	counts := map[string]int{}
	var late time.Duration
	for phase, name := range []string{"", "traced_"} {
		for class, cname := range []string{"writes", "reads", "scans", "closes"} {
			counts[name+cname] = len(r.samples(phase, class))
		}
	}
	for _, rec := range r.recs {
		late = max(late, rec.maxLate)
	}
	// The shape of each class's untraced latencies over the whole run, in
	// microseconds: p10, p25, p50, p75, p90, p99.
	shape, means := map[string][]float64{}, map[string]float64{}
	for class, cname := range []string{"writes", "reads", "scans", "closes"} {
		ds := r.samples(0, class)
		means[cname] = us(mean(ds))
		for _, p := range []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.99} {
			shape[cname] = append(shape[cname], math.Round(us(quantile(ds, p))))
		}
	}
	return map[string]any{"samples": counts, "latency_us": shape, "mean_us": means, "max_late_ms": ms(late),
		"measured_s": r.ended.Sub(r.start).Seconds(), "setup_s": r.setupS, "errors": r.errors}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEnd reports each latency quantile over all of the run's untraced
// samples of its class, and each rate over the whole measured time. Pooled
// quantiles are steadier here than medians of per-window quantiles: the
// rarer classes (scans, closes) have too few samples per window for a
// window's p90 to settle.
func (r *runner) endToEnd(m map[string]metric) {
	secs := r.ended.Sub(r.start).Seconds()
	q := func(class int, p float64, unit func(time.Duration) float64) float64 {
		return unit(quantile(r.samples(0, class), p))
	}
	rate := func(classes ...int) float64 {
		n := 0
		for _, c := range classes {
			n += len(r.samples(0, c))
		}
		return float64(n) / secs
	}
	m["setup_s"] = metric{medianFloat(r.setupS), "s"}
	m["write_p50_us"] = metric{q(classWrite, 0.50, us), "us"}
	m["write_p99_us"] = metric{q(classWrite, 0.99, us), "us"}
	m["writes_per_s"] = metric{rate(classWrite), "1/s"}
	m["read_p50_us"] = metric{q(classRead, 0.50, us), "us"}
	m["read_p90_us"] = metric{q(classRead, 0.90, us), "us"}
	m["reads_per_s"] = metric{rate(classRead, classScan), "1/s"}
	m["scan_p50_ms"] = metric{q(classScan, 0.50, ms), "ms"}
	m["scan_p90_ms"] = metric{q(classScan, 0.90, ms), "ms"}
	m["close_p50_ms"] = metric{q(classClose, 0.50, ms), "ms"}
	m["close_p90_ms"] = metric{q(classClose, 0.90, ms), "ms"}
	m["heap_mb"] = metric{r.heapMB, "MB"}
}

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s / time.Duration(len(ds))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (r *runner) perLayer(m map[string]metric) {
	st := r.tr.aggregate()
	a, b := r.snap[0], r.snap[1]
	// Span metrics are per traced operation; deltas of the program's own
	// counters cover every operation of the run.
	count := func(phases []int, classes ...int) float64 {
		n := 0
		for _, p := range phases {
			for _, c := range classes {
				n += len(r.samples(p, c))
			}
		}
		return float64(n)
	}
	traced, all := []int{1}, []int{0, 1}
	writes := count(traced, classWrite)
	reads := count(traced, classRead, classScan)
	closes := count(traced, classClose)
	allWrites, allCloses := count(all, classWrite), count(all, classClose)
	perOp := func(name string, n float64) float64 { return ratio(us(st.self[name]), n) }
	perCall := func(name string) float64 { return ratio(us(st.self[name]), float64(st.calls[name])) }

	var rules, checks, passes int
	for _, rec := range r.recs {
		rules += rec.rulesConsidered[1]
		checks += rec.guardChecks[1]
		passes += rec.guardPasses[1]
	}

	m["graph.lock_wait_us"] = metric{perOp("graph.lock_wait", writes), "us/write"}
	m["graph.write_us"] = metric{perOp("graph.write", writes), "us/write"}
	m["graph.commit_us"] = metric{perOp("graph.commit", writes), "us/write"}
	m["graph.view_us"] = metric{perOp("graph.view", reads), "us/read"}
	m["runtime.alloc_kb_per_write"] = metric{ratio(float64(b.alloc-a.alloc)/1024, allWrites), "KiB/write"}
	m["runtime.gc_cpu_fraction"] = metric{ratio(b.cpuGC-a.cpuGC, b.cpuTotal-a.cpuTotal), "ratio"}
	m["cypher.prepare_us"] = metric{perCall("cypher.prepare"), "us/call"}
	m["cypher.plan_cache_hit_ratio"] = metric{ratio(float64(b.planHits-a.planHits),
		float64(b.planHits-a.planHits+b.planMisses-a.planMisses)), "ratio"}
	m["cypher.plans_compiled"] = metric{float64(b.plansCompiled - a.plansCompiled), "count"}
	m["cypher.execute_us"] = metric{perCall("cypher.execute"), "us/call"}
	m["trigger.process_us"] = metric{perOp("trigger.process", writes+closes), "us/write"}
	m["trigger.alert_query_us"] = metric{ratio((b.alertQueryS-a.alertQueryS)*1e6, allWrites+allCloses), "us/write"}
	m["trigger.rules_considered_per_write"] = metric{ratio(float64(rules), writes+closes), "count/write"}
	m["trigger.guard_pass_ratio"] = metric{ratio(float64(passes), float64(checks)), "ratio"}
	m["wal.append_us"] = metric{perOp("wal.append", writes), "us/write"}
	m["wal.durable_wait_us"] = metric{perOp("wal.durable_wait", writes), "us/write"}
	txsPerSync := ratio(b.groupTxs-a.groupTxs, b.groupSyncs-a.groupSyncs)
	if r.w.sys().skb != nil {
		txsPerSync = ratio(allWrites, b.fsyncs-a.fsyncs)
	}
	m["wal.txs_per_fsync"] = metric{txsPerSync, "count"}
	m["wal.bytes_per_write"] = metric{ratio(float64(b.walBytes-a.walBytes), allWrites), "B/write"}
	m["wal.recovery_s"] = metric{medianFloat(r.recoveryS), "s"}
	m["wal.checkpoint_ms"] = metric{medianFloat(r.checkpointMS), "ms"}
	m["core.async_wait_ms"] = metric{ratio(ms(st.self["core.async_wait"]), closes), "ms/close"}
	m["core.async_eval_us"] = metric{ratio((b.asyncEvalS-a.asyncEvalS)*1e6, b.asyncEvals-a.asyncEvals), "us/eval"}
	m["summary.rollover_us"] = metric{ratio(us(st.self["summary.rollover"]), closes), "us/close"}
	m["shard.lock_wait_us"] = metric{perOp("shard.lock_wait", writes), "us/write"}
	m["shard.intra_write_us"] = metric{ratio(us(st.total["op.write"]), float64(st.calls["op.write"])), "us/write"}
	m["shard.bridge_write_us"] = metric{ratio(us(st.total["shard.bridge"]), float64(st.calls["shard.bridge"])), "us/write"}
	if r.w.sys().kb != nil {
		m["shard.intra_write_us"] = metric{0, "us/write"}
	}

	// Self-time shares per layer over all traced operations; "bench" is
	// the remainder the root spans keep (the benchmark's own code).
	for _, layer := range []string{"graph", "cypher", "trigger", "wal", "core", "summary", "shard"} {
		m["share."+layer] = metric{ratio(float64(st.layerSelf[layer]), float64(st.opTime)), "ratio"}
	}
	m["share.bench"] = metric{ratio(float64(st.layerSelf["op"]), float64(st.opTime)), "ratio"}

	// Tracing overhead: mean latency of the workload's main class, traced
	// operations over untraced ones.
	main := classWrite
	if len(r.samples(0, classRead)) > len(r.samples(0, classWrite)) {
		main = classRead
	}
	m["trace.overhead"] = metric{ratio(float64(mean(r.samples(1, main))), float64(mean(r.samples(0, main)))) - 1, "ratio"}
}
