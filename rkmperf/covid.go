package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/periodic"
	"repro/internal/trigger"
	"repro/internal/value"
	"repro/internal/workload"
)

// simStart anchors every workload's manual clock.
var simStart = time.Date(2023, 4, 1, 0, 0, 0, 0, time.UTC)

const day = 24 * time.Hour

// covid is the COVID scenario as the benchmark drives it: the generator of
// workload.Scenario, the hospitals of each region, and the benchmark's own
// tally of what it wrote, from which the correctness checks compute their
// references.
type covid struct {
	sc      *workload.Scenario
	regions []string
	hosp    map[string][]graph.NodeID
	// admitted counts admissions per "region#day"; live counts those not
	// discharged since.
	admitted map[string]int
	live     map[string]int
	patients int
	// regionDayOf maps each generated patient id to its region-day.
	regionDayOf map[string]string
}

func buildCovid(kb *core.KnowledgeBase, seed int64) (*covid, error) {
	sc, err := workload.Build(kb, workload.Config{Seed: seed, Regions: 20, HospitalsPerRegion: 2, LabsPerRegion: 1})
	if err != nil {
		return nil, err
	}
	c := &covid{sc: sc, regions: sc.Regions(), admitted: map[string]int{}, live: map[string]int{},
		regionDayOf: map[string]string{}}
	return c, c.loadHospitals(kb)
}

// loadHospitals maps each region to its hospital nodes (the generator names
// hospitals "<region>/hospital-<i>"). A reopened durable knowledge base
// calls it again after recovery.
func (c *covid) loadHospitals(kb *core.KnowledgeBase) error {
	c.hosp = map[string][]graph.NodeID{}
	return kb.Store().View(func(tx *graph.Tx) error {
		for _, id := range tx.NodesByLabel("Hospital") {
			v, _ := tx.NodeProp(id, "name")
			name, _ := v.AsString()
			region, _, _ := strings.Cut(name, "/")
			c.hosp[region] = append(c.hosp[region], id)
		}
		if len(c.hosp) != len(c.regions) {
			return fmt.Errorf("found hospitals for %d of %d regions", len(c.hosp), len(c.regions))
		}
		return nil
	})
}

// admissions draws n admissions for day and tallies them.
func (c *covid) admissions(n, d int) []workload.Admission {
	adms := c.sc.Admissions(n, d)
	for _, a := range adms {
		c.admitted[a.RegionDay]++
		c.live[a.RegionDay]++
		c.regionDayOf[a.ID] = a.RegionDay
	}
	c.patients += n
	return adms
}

// admit is the patient-creation write: one Patient per admission, treated
// at a hospital of its region, and with stats the running per-(region,
// day) RegionStat counter of the summary design (workload.AdmitOptions'
// LinkHospital and MaintainStats).
func (c *covid) admit(adms []workload.Admission, stats bool) func(tx *graph.Tx) error {
	return func(tx *graph.Tx) error {
		for _, a := range adms {
			pid, err := tx.CreateNode([]string{"Patient"}, map[string]value.Value{
				"id":        value.Str(a.ID),
				"region":    value.Str(a.Region),
				"day":       value.Int(int64(a.Day)),
				"regionDay": value.Str(a.RegionDay),
				"hub":       value.Str("C"),
			})
			if err != nil {
				return err
			}
			hs := c.hosp[a.Region]
			if _, err := tx.CreateRel(pid, hs[int(a.ID[len(a.ID)-1])%len(hs)], "TreatedAt", nil); err != nil {
				return err
			}
			if stats {
				if err := bumpStat(tx, a.Region, a.Day); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

func bumpStat(tx *graph.Tx, region string, d int) error {
	key := workload.RegionDayKey(region, d)
	ids, _ := tx.NodesByProp("RegionStat", "key", value.Str(key))
	if len(ids) > 0 {
		cur, _ := tx.NodeProp(ids[0], "patients")
		n, _ := cur.AsInt()
		return tx.SetNodeProp(ids[0], "patients", value.Int(n+1))
	}
	_, err := tx.CreateNode([]string{"RegionStat"}, map[string]value.Value{
		"key": value.Str(key), "region": value.Str(region),
		"day": value.Int(int64(d)), "patients": value.Int(1),
	})
	return err
}

// closeDay materializes the day's DailyRegionStat nodes from the RegionStat
// counters, as workload.Scenario.CloseDay does; the summary design's rules
// fire on them.
func (c *covid) closeDay(d int) func(tx *graph.Tx) error {
	return func(tx *graph.Tx) error {
		for _, region := range c.regions {
			key := workload.RegionDayKey(region, d)
			ids, _ := tx.NodesByProp("RegionStat", "key", value.Str(key))
			if len(ids) == 0 {
				continue
			}
			cnt, _ := tx.NodeProp(ids[0], "patients")
			if _, err := tx.CreateNode([]string{"DailyRegionStat"}, map[string]value.Value{
				"key": value.Str(key), "region": value.Str(region),
				"day": value.Int(int64(d)), "patients": cnt,
			}); err != nil {
				return err
			}
		}
		return nil
	}
}

// preload writes n admissions spread over days [0, days) in transactions
// of batch patients; with stats it also closes each day and rolls the
// Essential Summary over (clock must then be the knowledge base's clock).
func (c *covid) preload(kb *core.KnowledgeBase, clock *periodic.ManualClock, n, days, batch int, stats bool) error {
	for d, cnt := range dayCounts(n, days, 1.08) {
		adms := c.admissions(cnt, d)
		for i := 0; i < len(adms); i += batch {
			j := min(i+batch, len(adms))
			if _, err := kb.WriteTx(c.admit(adms[i:j], stats)); err != nil {
				return err
			}
		}
		if stats {
			if _, err := kb.WriteTx(c.closeDay(d)); err != nil {
				return err
			}
		}
		clock.Advance(day)
		if err := kb.Tick(); err != nil && err != core.ErrSummariesDisabled {
			return err
		}
	}
	return nil
}

// dayCounts splits n admissions over days with day-over-day growth.
func dayCounts(n, days int, growth float64) []int {
	w, total := 1.0, 0.0
	weights := make([]float64, days)
	for d := range weights {
		weights[d] = w
		total += w
		w *= growth
	}
	out := make([]int, days)
	sum := 0
	for d := range out {
		out[d] = int(float64(n) * weights[d] / total)
		sum += out[d]
	}
	out[days-1] += n - sum
	return out
}

// ---- rules and their references ----

func naiveRule() trigger.Rule {
	name, guard, alert := workload.NaiveRuleSpec()
	return trigger.Rule{Name: name, Hub: "R", Guard: guard, Alert: alert,
		Event: trigger.Event{Kind: trigger.CreateNode, Label: "Patient"}}
}

func summaryRule() trigger.Rule {
	name, guard, alert := workload.SummaryRuleSpec()
	return trigger.Rule{Name: name, Hub: "R", Guard: guard, Alert: alert,
		Event: trigger.Event{Kind: trigger.CreateNode, Label: "DailyRegionStat"}}
}

// trendRule is the heavier multi-day rule of the summary design, evaluated
// asynchronously: a region whose day exceeds 1.2x the mean of its three
// previous days, read by key so its cost does not grow with the run.
func trendRule() trigger.Rule {
	return trigger.Rule{
		Name:  "trend-3day",
		Hub:   "R",
		Event: trigger.Event{Kind: trigger.CreateNode, Label: "DailyRegionStat"},
		Guard: "NEW.day >= 3",
		Alert: `MATCH (a:DailyRegionStat {key: NEW.region + '#' + toString(NEW.day - 1)})
		        MATCH (b:DailyRegionStat {key: NEW.region + '#' + toString(NEW.day - 2)})
		        MATCH (c:DailyRegionStat {key: NEW.region + '#' + toString(NEW.day - 3)})
		        WITH NEW.region AS region, NEW.day AS day, NEW.patients AS today,
		             a.patients + b.patients + c.patients AS base
		        WHERE 10 * today * 3 > 12 * base
		        RETURN region, day, today, base`,
		Phase: trigger.AfterAsync,
	}
}

// growthAlert is the shared condition of the Fig. 9 and Fig. 10 rules.
func growthAlert(today, yesterday int) bool {
	return yesterday > 0 && float64(today-yesterday)/float64(today) > 0.1
}

func regionAlertKey(rule, region string, today, yesterday int) string {
	return alertKey(rule, map[string]value.Value{
		"region": value.Str(region), "today": value.Int(int64(today)), "yesterday": value.Int(int64(yesterday)),
	})
}

// summaryAlerts is the reference alert set of the Fig. 10 rule (and with
// trend, the trend rule) when days [first, days) were closed, from the
// admission tally.
func (c *covid) summaryAlerts(first, days int, trend bool) []string {
	var out []string
	for _, region := range c.regions {
		for d := first + 1; d < days; d++ {
			t := c.admitted[workload.RegionDayKey(region, d)]
			y := c.admitted[workload.RegionDayKey(region, d-1)]
			if t > 0 && growthAlert(t, y) {
				out = append(out, regionAlertKey("fig10-summary", region, t, y))
			}
			if !trend || t == 0 || d < first+3 {
				continue
			}
			base, n := 0, 0
			for k := d - 3; k < d; k++ {
				if v := c.admitted[workload.RegionDayKey(region, k)]; v > 0 {
					base += v
					n++
				}
			}
			if n == 3 && 30*t > 12*base {
				out = append(out, alertKey("trend-3day", map[string]value.Value{
					"region": value.Str(region), "day": value.Int(int64(d)),
					"today": value.Int(int64(t)), "base": value.Int(int64(base)),
				}))
			}
		}
	}
	return out
}
