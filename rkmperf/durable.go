package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/periodic"
	"repro/internal/value"
	"repro/internal/wal"
	"repro/internal/workload"
)

// summaryDurable is the Fig. 10 summary design on a durable knowledge base
// (FsyncAlways, the server's default): two closed-loop writers share each
// simulated day's admissions and discharges; then one of them closes the
// day (CloseDay, clock, Tick, WaitAsyncIdle), looks up closed days'
// statistics and scans the last two closed days while the other waits for
// the next day. Set-up ends with Checkpoint, Close and a cold OpenDurable.
type summaryDurable struct {
	dir   string
	kb    *core.KnowledgeBase
	clock *periodic.ManualClock
	c     *covid
	s     *system
	open  bool

	mu     sync.Mutex // guards census and c.live during the run
	census []string   // admitted, not yet discharged patient ids, oldest first
	target int        // census the discharges hold
	day    int        // the open day; earlier days are closed
}

const (
	durablePreload = 1000
	durableDays    = 5
	durableDayLen  = 50 // admissions per simulated day
	durableReads   = 50 // lookups after each day close
)

const qDischarge = `MATCH (p:Patient {id: $id}) DETACH DELETE p`

func (w *summaryDurable) sys() *system  { return w.s }
func (w *summaryDurable) fsync() string { return "always" }

func (w *summaryDurable) discard() error {
	if !w.open {
		return nil
	}
	w.open = false
	w.kb.StopAsync()
	return w.kb.Close()
}

// configure installs what recovery does not restore: indexes (those of
// workload.Build, which creates them itself on first open, and Patient.id
// for discharges), summaries, rules and the async pipeline.
func (w *summaryDurable) configure(r *runner, built bool) error {
	indexes := [][2]string{{"Region", "name"}, {"Patient", "regionDay"},
		{"DailyRegionStat", "key"}, {"RegionStat", "key"}, {"Patient", "id"}}
	if built {
		indexes = indexes[4:]
	}
	for _, idx := range indexes {
		if err := w.kb.CreateIndex(idx[0], idx[1]); err != nil {
			return err
		}
	}
	if err := w.kb.EnableSummaries(day); err != nil {
		return err
	}
	if err := w.kb.InstallRule(summaryRule()); err != nil {
		return err
	}
	if err := w.kb.InstallRule(trendRule()); err != nil {
		return err
	}
	w.s = newSingle(w.kb, r.tr)
	return w.kb.StartAsync(core.AsyncOptions{Workers: 1})
}

func (w *summaryDurable) openDurable() (*wal.RecoveryInfo, error) {
	kb, info, err := core.OpenDurable(w.dir, core.Config{Clock: w.clock}, wal.Options{Fsync: wal.FsyncAlways})
	if err != nil {
		return nil, err
	}
	w.kb, w.open = kb, true
	return info, nil
}

func (w *summaryDurable) setup(r *runner, dir string) error {
	w.dir = dir
	w.clock = periodic.NewManualClock(simStart)
	if _, err := w.openDurable(); err != nil {
		return err
	}
	c, err := buildCovid(w.kb, r.opt.seed)
	if err != nil {
		return err
	}
	w.c = c
	if err := w.configure(r, true); err != nil {
		return err
	}
	w.target = max(int(float64(durablePreload)*r.opt.scale), 200)
	if err := w.c.preload(w.kb, w.clock, w.target, durableDays, 250, true); err != nil {
		return err
	}
	w.census = w.census[:0]
	for i := 1; i <= w.c.patients; i++ {
		w.census = append(w.census, fmt.Sprintf("p%d", i))
	}
	w.day = durableDays
	if err := w.kb.WaitAsyncIdle(time.Minute); err != nil {
		return err
	}

	t0 := time.Now()
	if err := w.kb.Checkpoint(); err != nil {
		return err
	}
	r.checkpointMS = append(r.checkpointMS, ms(time.Since(t0)))
	if err := w.discard(); err != nil {
		return err
	}
	t0 = time.Now()
	if _, err := w.openDurable(); err != nil {
		return err
	}
	r.recoveryS = append(r.recoveryS, time.Since(t0).Seconds())
	if err := w.c.loadHospitals(w.kb); err != nil {
		return err
	}
	return w.configure(r, false)
}

// barrier makes two clients meet between the phases of a day.
type barrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	round int
}

func newBarrier() *barrier {
	b := &barrier{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) wait() {
	b.mu.Lock()
	defer b.mu.Unlock()
	round := b.round
	if b.n++; b.n == 2 {
		b.n = 0
		b.round++
		b.cond.Broadcast()
		return
	}
	for round == b.round {
		b.cond.Wait()
	}
}

func (w *summaryDurable) measure(r *runner) {
	var (
		wg   sync.WaitGroup
		bar  = newBarrier()
		adms []workload.Admission
		stop bool
	)
	wg.Add(2)
	for k := 0; k < 2; k++ {
		go func(k int) {
			defer wg.Done()
			cl := r.newClient()
			rng := rand.New(rand.NewSource(r.opt.seed + int64(303+k)))
			for {
				if k == 0 {
					stop = r.done()
					if !stop {
						adms = w.c.admissions(durableDayLen, w.day)
						w.mu.Lock()
						for _, a := range adms {
							w.census = append(w.census, a.ID)
						}
						w.mu.Unlock()
					}
				}
				bar.wait()
				if stop {
					return
				}
				for i := k; i < len(adms); i += 2 {
					a := adms[i : i+1]
					cl.op(classWrite, "write", time.Time{}, func(o *opTrace) error {
						rep, err := w.s.write(o, 0, w.c.admit(a, true))
						cl.note(rep)
						return err
					})
					w.discharge(cl)
				}
				bar.wait()
				if k == 1 {
					continue
				}
				cl.op(classClose, "close", time.Time{}, func(o *opTrace) error { return w.closeDay(cl, o) })
				// The reads run while the other client waits for the next
				// day, so no write competes with them.
				for j := 0; j < durableReads; j++ {
					cl.op(classRead, "read", time.Time{}, func(o *opTrace) error { return w.lookupStat(o, rng) })
				}
				for back := 1; back <= 2; back++ {
					cl.op(classScan, "scan", time.Time{}, func(o *opTrace) error { return w.scanDay(o, w.day-back) })
				}
			}
		}(k)
	}
	wg.Wait()
}

// discharge deletes the oldest patient through Cypher while the census is
// above its target.
func (w *summaryDurable) discharge(cl *client) {
	w.mu.Lock()
	if len(w.census) <= w.target {
		w.mu.Unlock()
		return
	}
	id := w.census[0]
	w.census = w.census[1:]
	w.mu.Unlock()
	cl.op(classWrite, "write", time.Time{}, func(o *opTrace) error {
		res, err := w.s.execute(o, qDischarge, map[string]value.Value{"id": value.Str(id)})
		if err == nil && res.Stats.NodesDeleted != 1 {
			err = fmt.Errorf("discharge %s deleted %d nodes", id, res.Stats.NodesDeleted)
		}
		return err
	})
	w.mu.Lock()
	w.c.live[w.c.regionDayOf[id]]--
	w.mu.Unlock()
}

// closeDay closes the open day: daily statistics (the sync Fig. 10 rule
// and the async trend rule fire on them), the clock, the Essential Summary
// rollover, and the wait until the async alerts are written.
func (w *summaryDurable) closeDay(cl *client, o *opTrace) error {
	rep, err := w.s.write(o, 0, w.c.closeDay(w.day))
	cl.note(rep)
	if err != nil {
		return err
	}
	w.clock.Advance(day)
	o.enter("summary.rollover")
	err = w.kb.Tick()
	o.exit()
	if err != nil {
		return err
	}
	o.enter("core.async_wait")
	err = w.kb.WaitAsyncIdle(time.Minute)
	o.exit()
	w.day++
	return err
}

// lookupStat checks a closed day's DailyRegionStat by key.
func (w *summaryDurable) lookupStat(o *opTrace, rng *rand.Rand) error {
	key := workload.RegionDayKey(w.c.regions[rng.Intn(len(w.c.regions))], rng.Intn(w.day))
	want := w.c.admitted[key]
	res, err := w.s.query(o, 0, qDailyStat, map[string]value.Value{"key": value.Str(key)})
	if err != nil {
		return err
	}
	if want == 0 {
		if len(res.Rows) != 0 {
			return fmt.Errorf("%s: stat of a day without admissions", key)
		}
		return nil
	}
	return expectInt(res, "n", want, key)
}

// scanDay checks a closed day's patients still in care per region; it runs
// while no client writes.
func (w *summaryDurable) scanDay(o *opTrace, d int) error {
	res, err := w.s.query(o, 0, qDayByRegion, map[string]value.Value{"day": value.Int(int64(d))})
	if err != nil {
		return err
	}
	want := map[string]int{}
	for _, region := range w.c.regions {
		if n := w.c.live[workload.RegionDayKey(region, d)]; n > 0 {
			want[region] = n
		}
	}
	return expectGroups(res, "region", "n", want, fmt.Sprintf("day %d", d))
}

// check compares the alerts with the reference, then reopens the log and
// compares the recovered graph with the one before the close.
func (w *summaryDurable) check(r *runner) {
	if err := w.kb.WaitAsyncIdle(time.Minute); err != nil {
		r.check(err)
		return
	}
	got, err := w.s.alertSet()
	if err == nil {
		want := sortedCopy(w.c.summaryAlerts(0, w.day, true))
		if d := diffMultisets(got, want); d != "" {
			err = fmt.Errorf("alerts: %d, want %d: %s", len(got), len(want), d)
		}
	}
	r.check(err)
	before := w.kb.GraphStats()
	if err := w.discard(); err != nil {
		r.check(err)
		return
	}
	if _, err := w.openDurable(); err != nil {
		r.check(fmt.Errorf("reopen: %w", err))
		return
	}
	after := w.kb.GraphStats()
	if after.Nodes != before.Nodes || after.Relationships != before.Relationships {
		err = fmt.Errorf("reopen: %d nodes, %d rels, want %d, %d",
			after.Nodes, after.Relationships, before.Nodes, before.Relationships)
	}
	r.check(err)
	reopened := newSingle(w.kb, nil)
	alerts, err := reopened.alertSet()
	if err == nil {
		if d := diffMultisets(alerts, got); d != "" {
			err = fmt.Errorf("reopen alerts: %s", d)
		}
	}
	r.check(err)
	w.open = false
	r.check(w.kb.Close())
}
