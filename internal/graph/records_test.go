package graph

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/metrics"
	"repro/internal/value"
)

// liveHeap returns the bytes of live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// patientStore returns a store with 20 region hospitals, the three
// Patient property indexes and n Patient-shaped nodes: one label, five
// properties, one TreatedAt relationship to a hospital.
func patientStore(tb testing.TB, n int) *Store {
	tb.Helper()
	s := NewStore()
	for _, p := range []string{"id", "region", "regionDay"} {
		if err := s.CreateIndex("Patient", p); err != nil {
			tb.Fatal(err)
		}
	}
	var hospitals []NodeID
	err := s.Update(func(tx *Tx) error {
		for r := 0; r < 20; r++ {
			id, err := tx.CreateNode([]string{"Hospital"}, map[string]value.Value{
				"name": value.Str(fmt.Sprintf("region-%02d/hospital-0", r)),
			})
			if err != nil {
				return err
			}
			hospitals = append(hospitals, id)
		}
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	addPatients(tb, s, hospitals, 0, n)
	return s
}

// addPatients creates patients [from, to) in transactions of 500.
func addPatients(tb testing.TB, s *Store, hospitals []NodeID, from, to int) {
	tb.Helper()
	for start := from; start < to; start += 500 {
		err := s.Update(func(tx *Tx) error {
			for i := start; i < min(start+500, to); i++ {
				r, day := i%20, i/200
				pid, err := tx.CreateNode([]string{"Patient"}, map[string]value.Value{
					"id":        value.Str(fmt.Sprintf("p%d", i)),
					"region":    value.Str(fmt.Sprintf("region-%02d", r)),
					"day":       value.Int(int64(day)),
					"regionDay": value.Str(fmt.Sprintf("region-%02d#%d", r, day)),
					"hub":       value.Str("C"),
				})
				if err != nil {
					return err
				}
				if _, err := tx.CreateRel(pid, hospitals[r], "TreatedAt", nil); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
}

// TestPatientNodeHeapBytes pins the live heap one stored patient costs:
// its node and relationship records, its entries in the node, relationship,
// label, rel-type and index tables, its hospital's adjacency entry and its
// property strings. The map-based records this layout replaced cost about
// 2,200 bytes.
func TestPatientNodeHeapBytes(t *testing.T) {
	const n = 10_000
	before := liveHeap()
	s := patientStore(t, n)
	after := liveHeap()
	runtime.KeepAlive(s)
	per := float64(after-before) / n
	t.Logf("%.0f bytes of live heap per Patient-shaped node", per)
	if per > 1100 {
		t.Fatalf("%.0f bytes per Patient-shaped node, want <= 1100", per)
	}
}

// oneNodeCommitClones returns the whole-map copies, and the entries they
// held, of one single-patient commit on a store of n patients.
func oneNodeCommitClones(t *testing.T, n int) (clones, entries int64) {
	t.Helper()
	s := patientStore(t, n)
	reg := metrics.NewRegistry()
	c := reg.Counter("cow_map_clones", "")
	e := reg.Counter("cow_map_cloned_entries", "")
	s.SetMetrics(Metrics{COWMapClones: c, COWMapClonedEntries: e})
	err := s.Update(func(tx *Tx) error {
		_, err := tx.CreateNode([]string{"Patient"}, map[string]value.Value{
			"id":        value.Str("p-new"),
			"region":    value.Str("region-03"),
			"day":       value.Int(0),
			"regionDay": value.Str("region-03#0"),
			"hub":       value.Str("C"),
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return c.Value(), e.Value()
}

// TestCOWMapCloneCounters pins the O(graph) cost of a write transaction's
// first touch: a one-node commit copies the same maps whatever the store's
// size, but the entries copied grow with it.
func TestCOWMapCloneCounters(t *testing.T) {
	c3, e3 := oneNodeCommitClones(t, 1_000)
	c4, e4 := oneNodeCommitClones(t, 10_000)
	t.Logf("10^3 nodes: %d maps, %d entries; 10^4 nodes: %d maps, %d entries", c3, e3, c4, e4)
	if c3 == 0 || c3 != c4 {
		t.Fatalf("map clones = %d at 10^3 nodes and %d at 10^4, want equal and non-zero", c3, c4)
	}
	if ratio := float64(e4) / float64(e3); ratio < 8 || ratio > 12 {
		t.Fatalf("cloned entries grew %.1fx from 10^3 to 10^4 nodes (%d -> %d), want ~10x", ratio, e3, e4)
	}
}

// adjacency lists the relationship identifiers RelsOf reports, in order.
func adjacency(v ReadView, id NodeID, dir Direction) []RelID {
	var ids []RelID
	for _, r := range v.RelsOf(id, dir, nil) {
		ids = append(ids, r.ID)
	}
	return ids
}

func wantAdjacency(t *testing.T, v ReadView, id NodeID, dir Direction, want ...RelID) {
	t.Helper()
	if got := adjacency(v, id, dir); !slices.Equal(got, want) {
		t.Fatalf("RelsOf(%d, %v) = %v, want %v", id, dir, got, want)
	}
}

// TestAdjacencyOrder checks that traversal reports relationships
// outgoing-first, each direction in creation order, and that the order
// survives DeleteRel, DETACH DELETE and Export/Import.
func TestAdjacencyOrder(t *testing.T) {
	s := NewStore()
	var a, b, c, d NodeID
	var r [8]RelID
	err := s.Update(func(tx *Tx) error {
		a, _ = tx.CreateNode([]string{"N"}, nil)
		b, _ = tx.CreateNode([]string{"N"}, nil)
		c, _ = tx.CreateNode([]string{"N"}, nil)
		d, _ = tx.CreateNode([]string{"N"}, nil)
		ends := [8][2]NodeID{{a, b}, {c, a}, {a, c}, {a, a}, {b, a}, {a, d}, {d, a}, {a, b}}
		for i, e := range ends {
			var err error
			if r[i], err = tx.CreateRel(e[0], e[1], "R", nil); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	check := func(tx *Tx) {
		t.Helper()
		wantAdjacency(t, tx, a, Outgoing, r[0], r[2], r[3], r[5], r[7])
		// The self-loop r[3] is reported once, with the outgoing side.
		wantAdjacency(t, tx, a, Incoming, r[1], r[4], r[6])
		wantAdjacency(t, tx, a, Both, r[0], r[2], r[3], r[5], r[7], r[1], r[4], r[6])
		if got := tx.Degree(a, Both); got != 8 {
			t.Fatalf("Degree(a, Both) = %d, want 8", got)
		}
	}
	for i := 0; i < 3; i++ { // the same order on every read
		s.View(func(tx *Tx) error { check(tx); return nil })
	}

	// An edited relationship keeps its place, and deleting one keeps the
	// order of the rest.
	err = s.Update(func(tx *Tx) error {
		if err := tx.SetRelProp(r[2], "w", value.Int(1)); err != nil {
			return err
		}
		return tx.DeleteRel(r[5])
	})
	if err != nil {
		t.Fatal(err)
	}
	s.View(func(tx *Tx) error {
		wantAdjacency(t, tx, a, Outgoing, r[0], r[2], r[3], r[7])
		wantAdjacency(t, tx, d, Both, r[6])
		return nil
	})

	// DETACH DELETE of b removes r[0], r[4] and r[7] from a's lists only.
	if err := s.Update(func(tx *Tx) error { return tx.DeleteNode(b, true) }); err != nil {
		t.Fatal(err)
	}
	s.View(func(tx *Tx) error {
		wantAdjacency(t, tx, a, Both, r[2], r[3], r[1], r[6])
		wantAdjacency(t, tx, c, Both, r[1], r[2])
		if tx.RelCount() != 4 {
			t.Fatalf("RelCount = %d, want 4", tx.RelCount())
		}
		return nil
	})

	// Export/Import rebuilds every adjacency list the same.
	var buf bytes.Buffer
	if err := s.Export(&buf); err != nil {
		t.Fatal(err)
	}
	imported := NewStore()
	if err := imported.Import(&buf); err != nil {
		t.Fatal(err)
	}
	orig, back := s.Begin(ReadOnly), imported.Begin(ReadOnly)
	defer orig.Rollback()
	defer back.Rollback()
	for _, id := range []NodeID{a, c, d} {
		for _, dir := range []Direction{Outgoing, Incoming, Both} {
			wantAdjacency(t, back, id, dir, adjacency(orig, id, dir)...)
		}
	}
}

// TestBridgeHalvesKeepAdjacency checks both halves of a knowledge bridge
// sit in their endpoint's adjacency in RelID order next to the shard's own
// relationships, through a local delete and a per-shard Export/Import.
func TestBridgeHalvesKeepAdjacency(t *testing.T) {
	ss := newShardedT(t, 2)
	var x0, y0, x1, y1 NodeID
	var l0, l1, l1b RelID
	ss.Update(0, func(tx *Tx) error {
		x0, _ = tx.CreateNode([]string{"N"}, nil)
		y0, _ = tx.CreateNode([]string{"N"}, nil)
		l0, _ = tx.CreateRel(x0, y0, "L", nil)
		return nil
	})
	ss.Update(1, func(tx *Tx) error {
		x1, _ = tx.CreateNode([]string{"N"}, nil)
		y1, _ = tx.CreateNode([]string{"N"}, nil)
		l1, _ = tx.CreateRel(y1, x1, "L", nil)
		return nil
	})
	bt, err := ss.BeginBridge(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	bridge, err := bt.CreateRel(x0, x1, "B", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := bt.Commit(nil); err != nil {
		t.Fatal(err)
	}
	ss.Update(1, func(tx *Tx) error {
		l1b, _ = tx.CreateRel(y1, x1, "L", nil)
		return tx.DeleteRel(l1)
	})

	mv := ss.View()
	wantAdjacency(t, mv, x0, Outgoing, l0, bridge)
	// The mirror half carries shard 0's (lower) identifier band, so it sorts
	// before shard 1's own relationships.
	wantAdjacency(t, mv, x1, Incoming, bridge, l1b)
	mv.Rollback()

	for i := 0; i < 2; i++ {
		var buf bytes.Buffer
		if err := ss.Shard(i).Export(&buf); err != nil {
			t.Fatal(err)
		}
		back := NewStore()
		if err := back.Import(&buf); err != nil {
			t.Fatal(err)
		}
		orig, imp := ss.Shard(i).Begin(ReadOnly), back.Begin(ReadOnly)
		for _, id := range orig.AllNodes() {
			wantAdjacency(t, imp, id, Both, adjacency(orig, id, Both)...)
		}
		if orig.HomeRelCount() != imp.HomeRelCount() {
			t.Fatalf("shard %d: HomeRelCount %d after import, want %d", i, imp.HomeRelCount(), orig.HomeRelCount())
		}
		orig.Rollback()
		imp.Rollback()
	}
}
