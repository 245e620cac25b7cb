package core

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/trigger"
	"repro/internal/wal"
)

// counterValue returns the value of the named counter/gauge sample (label ==
// "" for unlabelled families) or NaN when absent.
func counterValue(reg *metrics.Registry, name, label string) float64 {
	for _, fam := range reg.Gather() {
		if fam.Name != name {
			continue
		}
		for _, s := range fam.Samples {
			if s.LabelValue == label {
				return s.Value
			}
		}
	}
	return math.NaN()
}

// histCount returns the observation count of the named histogram sample or
// -1 when absent.
func histCount(reg *metrics.Registry, name, label string) int64 {
	for _, fam := range reg.Gather() {
		if fam.Name != name {
			continue
		}
		for _, s := range fam.Samples {
			if s.LabelValue == label && s.Hist != nil {
				return s.Hist.Count
			}
		}
	}
	return -1
}

func TestMetricsTrackExecution(t *testing.T) {
	kb, _ := newSimKB(t)
	if err := kb.InstallRule(trigger.Rule{
		Name:  "watch",
		Hub:   "E",
		Event: trigger.Event{Kind: trigger.CreateNode, Label: "Mutation"},
		Guard: "NEW.id <> 'skip'",
		Alert: "RETURN NEW.id AS mid",
	}); err != nil {
		t.Fatal(err)
	}
	exec(t, kb, "CREATE (:Mutation {id: 'M1'})")
	exec(t, kb, "CREATE (:Mutation {id: 'skip'})")
	if _, err := kb.Execute("CREATE (", nil); err == nil {
		t.Fatal("expected parse error")
	}

	reg := kb.Metrics()
	if got := counterValue(reg, mTxCommits, ""); got != 2 {
		t.Errorf("tx commits = %v, want 2", got)
	}
	if got := histCount(reg, mTxSeconds, ""); got != 2 {
		t.Errorf("tx latency observations = %d, want 2", got)
	}
	if got := counterValue(reg, mRuleFired, "watch"); got != 1 {
		t.Errorf("rule fired = %v, want 1", got)
	}
	if got := counterValue(reg, mGuardRejected, "watch"); got != 1 {
		t.Errorf("guard rejected = %v, want 1", got)
	}
	if got := counterValue(reg, mAlertsCreated, ""); got != 1 {
		t.Errorf("alerts created = %v, want 1", got)
	}
	if got := histCount(reg, mAlertQuery, ""); got != 1 {
		t.Errorf("alert-query observations = %d, want 1", got)
	}
	// Cardinality gauges read the live store: 2 mutations + 1 alert node.
	if got := counterValue(reg, mNodes, ""); got != 3 {
		t.Errorf("node gauge = %v, want 3", got)
	}
	if got := counterValue(reg, mAlertNodes, ""); got != 1 {
		t.Errorf("alert-node gauge = %v, want 1", got)
	}
}

func TestMetricsDurable(t *testing.T) {
	kb, _, err := OpenDurable(t.TempDir(), Config{}, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer kb.Close()
	exec(t, kb, "CREATE (:City {name: 'Milan'})")

	reg := kb.Metrics()
	if got := counterValue(reg, mWALRecords, ""); got != 1 {
		t.Errorf("wal records = %v, want 1", got)
	}
	if got := counterValue(reg, mWALBytes, ""); got <= 0 {
		t.Errorf("wal bytes = %v, want > 0", got)
	}
	if got := counterValue(reg, mWALSegments, ""); got != 1 {
		t.Errorf("wal segments = %v, want 1", got)
	}
	if got := histCount(reg, mWALFsync, wal.FsyncAlways.String()); got < 1 {
		t.Errorf("fsync observations = %d, want >= 1", got)
	}
	if got := counterValue(reg, mWALLastSeq, ""); got != 1 {
		t.Errorf("last seq = %v, want 1", got)
	}
	if err := kb.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := histCount(reg, mWALCheckpoint, ""); got != 1 {
		t.Errorf("checkpoint observations = %d, want 1", got)
	}
	// The durable tx path is instrumented too (store swap re-wires it).
	if got := counterValue(reg, mTxCommits, ""); got != 1 {
		t.Errorf("tx commits = %v, want 1", got)
	}
}

func TestMetricsSharedRegistryAggregates(t *testing.T) {
	reg := metrics.NewRegistry()
	kb1 := New(Config{Metrics: reg})
	kb2 := New(Config{Metrics: reg})
	if _, err := kb1.Execute("CREATE (:A)", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := kb2.Execute("CREATE (:B)", nil); err != nil {
		t.Fatal(err)
	}
	if got := counterValue(reg, mTxCommits, ""); got != 2 {
		t.Errorf("shared tx commits = %v, want 2", got)
	}
}

func TestMetricsForkIsolated(t *testing.T) {
	kb, _ := newSimKB(t)
	exec(t, kb, "CREATE (:A {x: 1})")
	fork, err := kb.Fork(nil)
	if err != nil {
		t.Fatal(err)
	}
	if fork.Metrics() == kb.Metrics() {
		t.Fatal("fork should get a fresh registry")
	}
	if _, err := fork.Execute("CREATE (:B)", nil); err != nil {
		t.Fatal(err)
	}
	// What-if activity lands on the fork's registry, not the parent's.
	if got := counterValue(kb.Metrics(), mTxCommits, ""); got != 1 {
		t.Errorf("parent tx commits = %v, want 1", got)
	}
	if got := counterValue(fork.Metrics(), mTxCommits, ""); got != 1 {
		t.Errorf("fork tx commits = %v, want 1", got)
	}
}

func TestMetricsSummaryRollover(t *testing.T) {
	kb, clock := newSimKB(t)
	if err := kb.EnableSummaries(24 * 3600e9); err != nil {
		t.Fatal(err)
	}
	// The first Tick creates the initial Summary node dated "now"; only the
	// second period boundary closes a period and counts as a rollover.
	exec(t, kb, "CREATE (:Seed)")
	for i := 0; i < 2; i++ {
		clock.Advance(25 * 3600e9)
		if err := kb.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	reg := kb.Metrics()
	if got := counterValue(reg, mRollovers, ""); got < 1 {
		t.Errorf("rollovers = %v, want >= 1", got)
	}
	if got := histCount(reg, mRolloverSeconds, ""); got < 1 {
		t.Errorf("rollover observations = %d, want >= 1", got)
	}
	if got := counterValue(reg, mChainLength, ""); got < 1 {
		t.Errorf("chain length = %v, want >= 1", got)
	}
}

// TestMetricsCOWMapClones checks the copy-on-write map counters are wired
// on both knowledge-base types: every commit copies at least the node table
// it writes, and the copies hold the nodes already there.
func TestMetricsCOWMapClones(t *testing.T) {
	kb, _ := newSimKB(t)
	for i := 0; i < 3; i++ {
		exec(t, kb, "CREATE (:Mutation {id: 'M'})")
	}
	if got := counterValue(kb.Metrics(), mCOWMapClones, ""); got < 3 {
		t.Errorf("in-memory KB: map clones = %v, want >= 3", got)
	}
	// The node tables copied by the 2nd and 3rd commits held 1 and 2 nodes.
	if got := counterValue(kb.Metrics(), mCOWMapEntries, ""); got < 3 {
		t.Errorf("in-memory KB: cloned entries = %v, want >= 3", got)
	}

	skb := newShardedKB(t)
	for i := 0; i < 3; i++ {
		if _, err := skb.UpdateInHub("A", func(tx *graph.Tx) error {
			_, err := tx.CreateNode([]string{"Lab"}, nil)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := counterValue(skb.Metrics(), mCOWMapClones, ""); got < 3 {
		t.Errorf("sharded KB: map clones = %v, want >= 3", got)
	}
	if got := counterValue(skb.Metrics(), mCOWMapEntries, ""); got < 3 {
		t.Errorf("sharded KB: cloned entries = %v, want >= 3", got)
	}
}
