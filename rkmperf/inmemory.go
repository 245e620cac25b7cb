package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cypher"
	"repro/internal/graph"
	"repro/internal/periodic"
	"repro/internal/summary"
	"repro/internal/value"
	"repro/internal/workload"
)

// Queries of the read classes. Lookups hit an index or the summary chain;
// scans aggregate over every patient of a day.
const (
	qCountRegionDay = `MATCH (p:Patient {regionDay: $key}) RETURN count(p) AS n`
	qDailyStat      = `MATCH (s:DailyRegionStat {key: $key}) RETURN s.patients AS n`
	qDayByRegion    = `MATCH (p:Patient)-[:TreatedAt]->(:Hospital)-[:LocatedIn]->(r:Region)
	                   WHERE p.day = $day RETURN r.name AS region, count(p) AS n`
	qRegionDay = `MATCH (r:Region {name: $region})<-[:LocatedIn]-(:Hospital)<-[:TreatedAt]-(p:Patient)
	                   WHERE p.day = $day RETURN count(p) AS n`
	qAlertsByRule = `MATCH (a:Alert) RETURN a.rule AS rule, count(a) AS n`
)

// inMemory is the state shared by the two in-memory workloads.
type inMemory struct {
	kb    *core.KnowledgeBase
	clock *periodic.ManualClock
	c     *covid
	s     *system
	// frozen is the admission tally of the preloaded days, which no client
	// writes to, so readers can check against it without locking.
	frozen    map[string]int
	days      int
	naiveWant []string // reference alerts of the naive rule, in write order
}

func (m *inMemory) sys() *system                { return m.s }
func (m *inMemory) fsync() string               { return "none (in-memory)" }
func (m *inMemory) discard() error              { return nil }
func (m *inMemory) scaled(r *runner, n int) int { return max(int(float64(n)*r.opt.scale), 200) }

func (m *inMemory) open(r *runner) error {
	m.clock = periodic.NewManualClock(simStart)
	m.kb = core.New(core.Config{Clock: m.clock})
	c, err := buildCovid(m.kb, r.opt.seed)
	if err != nil {
		return err
	}
	m.c = c
	m.s = newSingle(m.kb, r.tr)
	return m.kb.EnableSummaries(day)
}

func (m *inMemory) freeze() {
	m.frozen = make(map[string]int, len(m.c.admitted))
	for k, v := range m.c.admitted {
		m.frozen[k] = v
	}
}

// admitOne is one naive-design admission of a patient on day d; it records
// the alert the Fig. 9 rule must raise for it.
func (m *inMemory) admitOne(cl *client, o *opTrace, d int, stats bool) error {
	adms := m.c.admissions(1, d)
	a := adms[0]
	rep, err := m.s.write(o, 0, m.c.admit(adms, stats))
	cl.note(rep)
	t := m.c.live[a.RegionDay]
	y := m.c.live[workload.RegionDayKey(a.Region, d-1)]
	if growthAlert(t, y) {
		m.naiveWant = append(m.naiveWant, regionAlertKey("fig9-naive", a.Region, t, y))
	}
	return err
}

// rollover advances the clock a day and runs the scheduler, which closes
// the Essential Summary period.
func (m *inMemory) rollover(o *opTrace) error {
	m.clock.Advance(day)
	o.enter("summary.rollover")
	defer o.exit()
	return m.kb.Tick()
}

// lookupCount checks an indexed patient count of a preloaded region-day.
func (m *inMemory) lookupCount(o *opTrace, rng *rand.Rand, inline int) error {
	key := workload.RegionDayKey(m.c.regions[rng.Intn(len(m.c.regions))], rng.Intn(m.days))
	q, params := qCountRegionDay, map[string]value.Value{"key": value.Str(key)}
	if inline > 0 {
		// An inlined key plus a unique, always true filter: a statement the
		// plan cache has never seen.
		q = fmt.Sprintf(`MATCH (p:Patient {regionDay: '%s'}) WHERE p.day > -%d RETURN count(p) AS n`, key, inline)
		params = nil
	}
	res, err := m.s.query(o, 0, q, params)
	if err != nil {
		return err
	}
	return expectInt(res, "n", m.frozen[key], key)
}

// scanDay checks the per-region patient count of a preloaded day through
// the Patient -> Hospital -> Region hops.
func (m *inMemory) scanDay(o *opTrace, rng *rand.Rand) error {
	d := rng.Intn(m.days)
	res, err := m.s.query(o, 0, qDayByRegion, map[string]value.Value{"day": value.Int(int64(d))})
	if err != nil {
		return err
	}
	want := map[string]int{}
	for _, region := range m.c.regions {
		if n := m.frozen[workload.RegionDayKey(region, d)]; n > 0 {
			want[region] = n
		}
	}
	return expectGroups(res, "region", "n", want, fmt.Sprintf("day %d", d))
}

// cell is row i's value of the named column (NULL when absent).
func cell(res *cypher.Result, i int, name string) value.Value {
	for c, col := range res.Columns {
		if col == name {
			return res.Rows[i][c]
		}
	}
	return value.Null
}

// scanRegionDay checks one region's patient count of a preloaded day
// through the Region <- Hospital <- Patient hops, anchored on the region.
func (m *inMemory) scanRegionDay(o *opTrace, rng *rand.Rand) error {
	region, d := m.c.regions[rng.Intn(len(m.c.regions))], rng.Intn(m.days)
	res, err := m.s.query(o, 0, qRegionDay, map[string]value.Value{
		"region": value.Str(region), "day": value.Int(int64(d))})
	if err != nil {
		return err
	}
	return expectInt(res, "n", m.frozen[workload.RegionDayKey(region, d)], region)
}

func expectInt(res *cypher.Result, col string, want int, what string) error {
	if len(res.Rows) != 1 {
		return fmt.Errorf("%s: %d rows, want 1", what, len(res.Rows))
	}
	got, _ := cell(res, 0, col).AsInt()
	if int(got) != want {
		return fmt.Errorf("%s: %s = %d, want %d", what, col, got, want)
	}
	return nil
}

// expectGroups checks a (key, count) result against want exactly.
func expectGroups(res *cypher.Result, keyCol, nCol string, want map[string]int, what string) error {
	got := map[string]int{}
	for i := range res.Rows {
		k, _ := cell(res, i, keyCol).AsString()
		n, _ := cell(res, i, nCol).AsInt()
		got[k] = int(n)
	}
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d groups, want %d", what, len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			return fmt.Errorf("%s: %s = %d, want %d", what, k, got[k], n)
		}
	}
	return nil
}

func (m *inMemory) checkAlerts(r *runner, want []string) {
	got, err := m.s.alertSet()
	if err == nil {
		if d := diffMultisets(got, sortedCopy(want)); d != "" {
			err = fmt.Errorf("alerts: %d, want %d: %s", len(got), len(want), d)
		}
	}
	r.check(err)
}

// openLoop calls fn at a fixed period until the deadline, passing each
// call's due time; a late call is not skipped, so a stall delays the calls
// after it and their latency shows it.
func openLoop(r *runner, period time.Duration, fn func(i int, due time.Time)) {
	due := time.Now()
	for i := 0; ; i++ {
		due = due.Add(period)
		if !due.Before(r.deadline) {
			return
		}
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		fn(i, due)
	}
}

// ---- admit-large ----

// admitLarge is the Fig. 9 design on a large graph: ~3*10^4 preloaded
// patients, the naive per-patient rule, and one closed-loop client that
// admits a patient per transaction, follows each admission with indexed
// counts and every admitScanEach admissions with a day scan, and closes a
// day (Essential Summary rollover) every admitDayLen admissions. One client
// does it all, so no read competes with a write for a processor and the
// second processor is left to the collector.
type admitLarge struct{ inMemory }

const (
	admitPreload  = 30000
	admitDays     = 10
	admitReads    = 8 // indexed counts after each admission
	admitScanEach = 2 // a day scan every 2 admissions
	admitDayLen   = 4
)

func (w *admitLarge) setup(r *runner, _ string) error {
	if err := w.open(r); err != nil {
		return err
	}
	w.days = admitDays
	if err := w.c.preload(w.kb, w.clock, w.scaled(r, admitPreload), admitDays, 2000, false); err != nil {
		return err
	}
	w.freeze()
	w.naiveWant = nil
	return w.kb.InstallRule(naiveRule())
}

func (w *admitLarge) measure(r *runner) {
	cl := r.newClient()
	rng := rand.New(rand.NewSource(r.opt.seed + 101))
	d := admitDays
	for i := 1; !r.done(); i++ {
		cl.op(classWrite, "write", time.Time{}, func(o *opTrace) error { return w.admitOne(cl, o, d, false) })
		for k := 0; k < admitReads; k++ {
			cl.op(classRead, "read", time.Time{}, func(o *opTrace) error { return w.lookupCount(o, rng, 0) })
		}
		if i%admitScanEach == 0 {
			cl.op(classScan, "scan", time.Time{}, func(o *opTrace) error { return w.scanRegionDay(o, rng) })
		}
		if i%admitDayLen == 0 {
			cl.op(classClose, "close", time.Time{}, w.rollover)
			d++
		}
	}
}

func (w *admitLarge) check(r *runner) { w.checkAlerts(r, w.naiveWant) }

// ---- analyst-reads ----

// analystReads is the summary design read by an analyst: ~10^4 patients
// over 14 closed days with statistics, summaries and alerts, one
// closed-loop reader running a fixed lookup/scan mix, and one open-loop
// writer admitting patients under the naive rule and closing a day every
// analystDayLen writes.
type analystReads struct {
	inMemory
	fig10Frozen int
	openDay     int // the writer's day when the run ended; earlier days are closed
}

const (
	analystPreload = 10000
	analystDays    = 14
	analystRate    = 20 * time.Millisecond // writer period: 50 writes/s
	analystDayLen  = 5
	analystMix     = 20 // reads per cycle: 17 lookups, then 3 scans
)

func (w *analystReads) setup(r *runner, _ string) error {
	if err := w.open(r); err != nil {
		return err
	}
	w.days = analystDays
	if err := w.kb.InstallRule(summaryRule()); err != nil {
		return err
	}
	if err := w.c.preload(w.kb, w.clock, w.scaled(r, analystPreload), analystDays, 500, true); err != nil {
		return err
	}
	w.freeze()
	w.fig10Frozen = len(w.c.summaryAlerts(0, analystDays, false))
	w.naiveWant = nil
	return w.kb.InstallRule(naiveRule())
}

func (w *analystReads) measure(r *runner) {
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		cl := r.newClient()
		rng := rand.New(rand.NewSource(r.opt.seed + 202))
		for i := 0; !r.done(); i++ {
			// Scans: two day scans, then the alerts by rule. Lookups, by
			// position mod 10: six patient counts (one with an inlined
			// literal), two statistics by key, two summary windows.
			switch k := i % analystMix; {
			case k >= analystMix-3 && k < analystMix-1:
				cl.op(classScan, "scan", time.Time{}, func(o *opTrace) error { return w.scanDay(o, rng) })
			case k == analystMix-1:
				cl.op(classScan, "scan", time.Time{}, w.scanAlerts)
			default:
				cl.op(classRead, "read", time.Time{}, func(o *opTrace) error {
					switch k % 10 {
					case 0, 1, 2, 3, 4:
						return w.lookupCount(o, rng, 0)
					case 5:
						return w.lookupCount(o, rng, i)
					case 6, 7:
						return w.lookupStat(o, rng)
					}
					return w.lookupWindow(o, rng)
				})
			}
		}
	}()
	go func() {
		defer wg.Done()
		cl := r.newClient()
		d := analystDays
		openLoop(r, analystRate, func(i int, due time.Time) {
			cl.op(classWrite, "write", due, func(o *opTrace) error { return w.admitOne(cl, o, d, true) })
			if (i+1)%analystDayLen == 0 {
				cl.op(classClose, "close", time.Time{}, func(o *opTrace) error {
					rep, err := w.s.write(o, 0, w.c.closeDay(d))
					cl.note(rep)
					if err != nil {
						return err
					}
					return w.rollover(o)
				})
				d++
			}
		})
		w.openDay = d
	}()
	wg.Wait()
}

// lookupStat checks a preloaded DailyRegionStat by key.
func (w *analystReads) lookupStat(o *opTrace, rng *rand.Rand) error {
	key := workload.RegionDayKey(w.c.regions[rng.Intn(len(w.c.regions))], rng.Intn(w.days))
	res, err := w.s.query(o, 0, qDailyStat, map[string]value.Value{"key": value.Str(key)})
	if err != nil {
		return err
	}
	if w.frozen[key] == 0 {
		if len(res.Rows) != 0 {
			return fmt.Errorf("%s: stat of a day without admissions", key)
		}
		return nil
	}
	return expectInt(res, "n", w.frozen[key], key)
}

// lookupWindow reads one region's Fig. 10 alert payload over the last 7
// Essential Summary periods.
func (w *analystReads) lookupWindow(o *opTrace, rng *rand.Rand) error {
	mgr, err := w.kb.Summaries()
	if err != nil {
		return err
	}
	region := w.c.regions[rng.Intn(len(w.c.regions))]
	var win []value.Value
	err = w.s.view(o, func(tx *graph.Tx) error {
		win = mgr.Window(tx, 7, summary.WindowFilter{Rule: "fig10-summary", Prop: "today",
			Where: map[string]value.Value{"region": value.Str(region)}})
		return nil
	})
	if err != nil {
		return err
	}
	if len(win) != 7 {
		return fmt.Errorf("window of %s: %d periods, want 7", region, len(win))
	}
	for _, v := range win {
		if _, isInt := v.AsInt(); !isInt && !v.IsNull() {
			return fmt.Errorf("window of %s: non-integer %v", region, v)
		}
	}
	return nil
}

// scanAlerts groups the alerts by rule; the preloaded days' Fig. 10 alerts
// are a lower bound (the writer's day closes add more).
func (w *analystReads) scanAlerts(o *opTrace) error {
	res, err := w.s.query(o, 0, qAlertsByRule, nil)
	if err != nil {
		return err
	}
	for i := range res.Rows {
		if rule, _ := cell(res, i, "rule").AsString(); rule == "fig10-summary" {
			if n, _ := cell(res, i, "n").AsInt(); int(n) >= w.fig10Frozen {
				return nil
			}
		}
	}
	return fmt.Errorf("alerts by rule: fewer than the %d preloaded fig10-summary alerts", w.fig10Frozen)
}

func (w *analystReads) check(r *runner) {
	want := append(w.c.summaryAlerts(0, w.openDay, false), w.naiveWant...)
	w.checkAlerts(r, want)
}
