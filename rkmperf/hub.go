package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/periodic"
	"repro/internal/trigger"
	"repro/internal/value"
	"repro/internal/wal"
	"repro/internal/workload"
)

// hubSharded is the hub-sharded durable knowledge base: shard 0 is the
// clinical hub C (patients, hospitals, daily statistics), shard 1 the
// analysis hub A (labs, sequences). Two closed-loop clients, one per hub,
// each write hubDayLen times to their own hub per simulated day; about a
// tenth of A's writes are knowledge bridges from a new sequence to a
// patient in C. Then, while A's client waits for the next day, C's client
// closes the day (daily statistics with an async Fig. 10 rule, then
// DrainAsync), looks up preloaded nodes by id in both hubs and scans
// preloaded days over the cross-shard view. The reads touch data of fixed
// size, so their latencies do not drift with the run.
type hubSharded struct {
	skb   *core.ShardedKB
	c     *covid // C's admissions and tallies; only C's client touches it
	s     *system
	open  bool
	labs  []graph.NodeID
	names []string // lab names, parallel to labs
	// patients are C's preloaded patients, the targets of bridges.
	patients []graph.NodeID
	rngA     *rand.Rand

	day      int // C's open day; days in [hubDays, day) are closed
	seqs     int
	seqByLab map[string]int
	seqLab   []string // lab of sequence s<i+1>
	bridges  int
	cWant    []string // reference alerts raised by C's writes
	aWant    []string // reference alerts raised by A's writes
	// preloaded is the number of patients in C and of sequences in A
	// before the run; byDay counts the preloaded patients per day and
	// region, which no client changes.
	preloaded int
	byDay     []map[string]int
	// measuring is set once the rules are installed: from then on each
	// write's expected alerts are recorded.
	measuring bool
}

const (
	hubC, hubA   = 0, 1
	hubPreload   = 2000 // patients in C and sequences in A
	hubDays      = 5
	hubDayLen    = 25 // writes per client per day
	hubBridgeMix = 0.1
	hubReads     = 20 // lookups per hub after each day close
	hubScans     = 4  // day scans after each day close
)

var hubLayout = []core.HubShard{
	{Hub: "C", Description: "clinical", Labels: []string{"Patient", "Hospital", "DailyRegionStat"}},
	{Hub: "A", Description: "analysis", Labels: []string{"Lab", "Sequence"}},
}

const (
	qPatientByID   = `MATCH (p:Patient {id: $id}) RETURN p.regionDay AS k`
	qSequenceByID  = `MATCH (s:Sequence {id: $id}) RETURN s.lab AS k`
	qDayByHospital = `MATCH (p:Patient {day: $day})-[:TreatedAt]->(h:Hospital)
	                  RETURN h.region AS region, count(p) AS n`
	qBridgeCount = `MATCH (s:Sequence)-[:SampledFrom]->(p:Patient) RETURN count(s) AS n`
)

func (w *hubSharded) sys() *system  { return w.s }
func (w *hubSharded) fsync() string { return "always" }

func (w *hubSharded) discard() error {
	if !w.open {
		return nil
	}
	w.open = false
	return w.skb.Close()
}

func (w *hubSharded) setup(r *runner, dir string) error {
	clock := periodic.NewManualClock(simStart)
	skb, _, err := core.OpenShardedDurable(dir, core.Config{Clock: clock}, hubLayout, wal.Options{Fsync: wal.FsyncAlways})
	if err != nil {
		return err
	}
	w.skb, w.open = skb, true
	w.s = newSharded(skb, r.tr)
	for _, idx := range []struct {
		shard       int
		label, prop string
	}{{hubC, "Patient", "regionDay"}, {hubC, "DailyRegionStat", "key"}, {hubC, "Patient", "id"},
		{hubA, "Sequence", "lab"}, {hubA, "Sequence", "id"},
		// Every shard needs the index for a cross-shard lookup to use it.
		{hubC, "Patient", "day"}, {hubA, "Patient", "day"}} {
		if err := skb.Store().Shard(idx.shard).CreateIndex(idx.label, idx.prop); err != nil {
			return err
		}
	}
	// The scenario generator needs a knowledge base to build on; the
	// sharded one gets its own hospitals and labs below.
	c, err := buildCovid(core.New(core.Config{Clock: clock}), r.opt.seed)
	if err != nil {
		return err
	}
	w.c = c
	if err := w.createSites(); err != nil {
		return err
	}
	n := max(int(float64(hubPreload)*r.opt.scale), 200)
	w.preloaded, w.byDay = n, nil
	for d, cnt := range dayCounts(n, hubDays, 1.08) {
		adms := w.c.admissions(cnt, d)
		byRegion := map[string]int{}
		for _, a := range adms {
			byRegion[a.Region]++
		}
		w.byDay = append(w.byDay, byRegion)
		for i := 0; i < len(adms); i += 500 {
			if _, err := skb.UpdateShard(hubC, w.c.admit(adms[i:min(i+500, len(adms))], false)); err != nil {
				return err
			}
		}
	}
	w.rngA = rand.New(rand.NewSource(r.opt.seed + 404))
	w.seqs, w.bridges, w.seqByLab, w.seqLab = 0, 0, map[string]int{}, nil
	w.cWant, w.aWant, w.measuring = nil, nil, false
	for i := 0; i < n; i += 500 {
		batch := min(500, n-i)
		if _, err := skb.UpdateShard(hubA, func(tx *graph.Tx) error {
			for j := 0; j < batch; j++ {
				if _, err := w.newSequence(tx.CreateNode, tx.CreateRel); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	err = skb.ViewShard(hubC, func(tx *graph.Tx) error {
		w.patients = tx.NodesByLabel("Patient")
		return nil
	})
	if err != nil {
		return err
	}
	w.day = hubDays
	w.measuring = true
	for _, rule := range hubRules() {
		if err := skb.InstallRule(rule); err != nil {
			return err
		}
	}
	return nil
}

// hubRules are one sync rule per hub with an indexed alert query, and the
// async Fig. 10 rule on C's daily statistics.
func hubRules() []trigger.Rule {
	name, guard, alert := workload.SummaryRuleSpec()
	return []trigger.Rule{
		{
			Name: "c-surge", Hub: "C",
			Event: trigger.Event{Kind: trigger.CreateNode, Label: "Patient"},
			Alert: `WITH NEW.regionDay AS key, countNodes('Patient', 'regionDay', NEW.regionDay) AS n
			        WHERE n % 5 = 0 RETURN key, n AS patients`,
		},
		{
			Name: "a-batch", Hub: "A",
			Event: trigger.Event{Kind: trigger.CreateNode, Label: "Sequence"},
			Alert: `WITH NEW.lab AS lab, countNodes('Sequence', 'lab', NEW.lab) AS n
			        WHERE n % 20 = 0 RETURN lab, n AS sequences`,
		},
		{
			Name: name, Hub: "C", Guard: guard, Alert: alert, Phase: trigger.AfterAsync,
			Event: trigger.Event{Kind: trigger.CreateNode, Label: "DailyRegionStat"},
		},
	}
}

// createSites creates two hospitals per region in C and one lab per region
// in A.
func (w *hubSharded) createSites() error {
	w.c.hosp = map[string][]graph.NodeID{}
	w.labs, w.names = nil, nil
	_, err := w.skb.UpdateShard(hubC, func(tx *graph.Tx) error {
		for _, region := range w.c.regions {
			for h := 0; h < 2; h++ {
				id, err := tx.CreateNode([]string{"Hospital"}, map[string]value.Value{
					"name": value.Str(fmt.Sprintf("%s/hospital-%d", region, h)), "region": value.Str(region), "hub": value.Str("C"),
				})
				if err != nil {
					return err
				}
				w.c.hosp[region] = append(w.c.hosp[region], id)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	_, err = w.skb.UpdateShard(hubA, func(tx *graph.Tx) error {
		for _, region := range w.c.regions {
			name := region + "/lab-0"
			id, err := tx.CreateNode([]string{"Lab"}, map[string]value.Value{
				"name": value.Str(name), "region": value.Str(region), "hub": value.Str("A"),
			})
			if err != nil {
				return err
			}
			w.labs = append(w.labs, id)
			w.names = append(w.names, name)
		}
		return nil
	})
	return err
}

// newSequence creates a sequence at a random lab through the given node
// and relationship constructors (a shard transaction's or a bridge
// transaction's) and tallies it.
func (w *hubSharded) newSequence(
	node func([]string, map[string]value.Value) (graph.NodeID, error),
	rel func(graph.NodeID, graph.NodeID, string, map[string]value.Value) (graph.RelID, error),
) (graph.NodeID, error) {
	i := w.rngA.Intn(len(w.labs))
	w.seqs++
	id, err := node([]string{"Sequence"}, map[string]value.Value{
		"id": value.Str(fmt.Sprintf("s%d", w.seqs)), "lab": value.Str(w.names[i]), "hub": value.Str("A"),
	})
	if err != nil {
		return 0, err
	}
	if _, err := rel(id, w.labs[i], "SequencedAt", nil); err != nil {
		return 0, err
	}
	w.seqByLab[w.names[i]]++
	w.seqLab = append(w.seqLab, w.names[i])
	if n := w.seqByLab[w.names[i]]; w.measuring && n%20 == 0 {
		w.aWant = append(w.aWant, alertKey("a-batch", map[string]value.Value{
			"lab": value.Str(w.names[i]), "sequences": value.Int(int64(n)),
		}))
	}
	return id, nil
}

func (w *hubSharded) measure(r *runner) {
	var (
		wg   sync.WaitGroup
		bar  = newBarrier()
		stop bool
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		cl := r.newClient()
		rng := rand.New(rand.NewSource(r.opt.seed + 505))
		for {
			stop = r.done()
			bar.wait()
			if stop {
				return
			}
			for i := 0; i < hubDayLen; i++ {
				w.writeC(cl)
			}
			bar.wait()
			cl.op(classClose, "close", time.Time{}, func(o *opTrace) error { return w.closeDay(cl, o) })
			// The reads run while A's client waits for the next day, so no
			// write competes with them.
			for j := 0; j < hubReads; j++ {
				cl.op(classRead, "read", time.Time{}, func(o *opTrace) error {
					id := fmt.Sprintf("p%d", 1+rng.Intn(w.preloaded))
					return w.lookup(o, hubC, qPatientByID, id, w.c.regionDayOf[id])
				})
				cl.op(classRead, "read", time.Time{}, func(o *opTrace) error {
					k := rng.Intn(w.preloaded)
					return w.lookup(o, hubA, qSequenceByID, fmt.Sprintf("s%d", k+1), w.seqLab[k])
				})
			}
			for j := 0; j < hubScans; j++ {
				cl.op(classScan, "scan", time.Time{}, func(o *opTrace) error { return w.scanDay(o, rng) })
			}
		}
	}()
	go func() {
		defer wg.Done()
		cl := r.newClient()
		for {
			bar.wait()
			if stop {
				return
			}
			for i := 0; i < hubDayLen; i++ {
				w.writeA(cl)
			}
			bar.wait()
		}
	}()
	wg.Wait()
}

// writeC admits one patient in C.
func (w *hubSharded) writeC(cl *client) {
	cl.op(classWrite, "write", time.Time{}, func(o *opTrace) error {
		adms := w.c.admissions(1, w.day)
		rep, err := w.s.write(o, hubC, w.c.admit(adms, false))
		cl.note(rep)
		if n := w.c.live[adms[0].RegionDay]; n%5 == 0 {
			w.cWant = append(w.cWant, alertKey("c-surge", map[string]value.Value{
				"key": value.Str(adms[0].RegionDay), "patients": value.Int(int64(n)),
			}))
		}
		return err
	})
}

// writeA adds one sequence in A, a tenth of them bridged to a patient in C.
func (w *hubSharded) writeA(cl *client) {
	if w.rngA.Float64() < hubBridgeMix {
		patient := w.patients[w.rngA.Intn(len(w.patients))]
		cl.op(classWrite, "bridge", time.Time{}, func(o *opTrace) error {
			o.enter("shard.bridge")
			defer o.exit()
			rep, err := w.skb.UpdateBridge("A", "C", func(bt *graph.BridgeTx) error {
				o.enter("graph.write")
				defer o.exit()
				seq, err := w.newSequence(func(l []string, p map[string]value.Value) (graph.NodeID, error) {
					return bt.CreateNodeIn(hubA, l, p)
				}, bt.CreateRel)
				if err != nil {
					return err
				}
				_, err = bt.CreateRel(seq, patient, "SampledFrom", nil)
				return err
			})
			cl.note(rep)
			if err == nil {
				w.bridges++
			}
			return err
		})
	} else {
		cl.op(classWrite, "write", time.Time{}, func(o *opTrace) error {
			rep, err := w.s.write(o, hubA, func(tx *graph.Tx) error {
				_, err := w.newSequence(tx.CreateNode, tx.CreateRel)
				return err
			})
			cl.note(rep)
			return err
		})
	}
}

// lookup checks the k column of a one-row lookup by id in a hub.
func (w *hubSharded) lookup(o *opTrace, hub int, q, id, want string) error {
	res, err := w.s.query(o, hub, q, map[string]value.Value{"id": value.Str(id)})
	if err != nil {
		return err
	}
	if len(res.Rows) != 1 {
		return fmt.Errorf("%s: %d rows, want 1", id, len(res.Rows))
	}
	if got, _ := cell(res, 0, "k").AsString(); got != want {
		return fmt.Errorf("%s: %q, want %q", id, got, want)
	}
	return nil
}

// scanDay checks a preloaded day's patients per region through the
// Patient -> Hospital hop, over the cross-shard view.
func (w *hubSharded) scanDay(o *opTrace, rng *rand.Rand) error {
	d := rng.Intn(len(w.byDay))
	res, err := w.s.query(o, -1, qDayByHospital, map[string]value.Value{"day": value.Int(int64(d))})
	if err != nil {
		return err
	}
	return expectGroups(res, "region", "n", w.byDay[d], fmt.Sprintf("day %d", d))
}

// closeDay writes C's daily statistics from the indexed patient counts and
// drains the async Fig. 10 activations they stage.
func (w *hubSharded) closeDay(cl *client, o *opTrace) error {
	d := w.day
	rep, err := w.s.write(o, hubC, func(tx *graph.Tx) error {
		for _, region := range w.c.regions {
			key := workload.RegionDayKey(region, d)
			n, _ := tx.CountByProp("Patient", "regionDay", value.Str(key))
			if n == 0 {
				continue
			}
			if _, err := tx.CreateNode([]string{"DailyRegionStat"}, map[string]value.Value{
				"key": value.Str(key), "region": value.Str(region),
				"day": value.Int(int64(d)), "patients": value.Int(int64(n)), "hub": value.Str("C"),
			}); err != nil {
				return err
			}
		}
		return nil
	})
	cl.note(rep)
	if err != nil {
		return err
	}
	o.enter("core.async_wait")
	_, err = w.skb.DrainAsync()
	o.exit()
	w.day++
	return err
}

// check compares the alerts with the reference and the cross-shard counts
// with the clients' tallies: each bridge is one relationship.
func (w *hubSharded) check(r *runner) {
	if _, err := w.skb.DrainAsync(); err != nil {
		r.check(err)
		return
	}
	want := append(append(w.c.summaryAlerts(hubDays, w.day, false), w.cWant...), w.aWant...)
	got, err := w.s.alertSet()
	if err == nil {
		if d := diffMultisets(got, sortedCopy(want)); d != "" {
			err = fmt.Errorf("alerts: %d, want %d: %s", len(got), len(want), d)
		}
	}
	r.check(err)

	stats := 0
	for d := hubDays; d < w.day; d++ {
		for _, region := range w.c.regions {
			if w.c.admitted[workload.RegionDayKey(region, d)] > 0 {
				stats++
			}
		}
	}
	wantNodes := 2*len(w.c.regions) + len(w.labs) + w.c.patients + w.seqs + stats + len(want)
	wantRels := w.c.patients + w.seqs + w.bridges
	err = w.skb.View(func(v *graph.MultiView) error {
		if n, m := v.NodeCount(), v.RelCount(); n != wantNodes || m != wantRels {
			return fmt.Errorf("cross-shard counts: %d nodes, %d rels, want %d, %d", n, m, wantNodes, wantRels)
		}
		return nil
	})
	r.check(err)
	res, err := w.skb.Query(qBridgeCount, nil)
	if err == nil {
		err = expectInt(res, "n", w.bridges, "bridges")
	}
	r.check(err)
}
