package graph

import (
	"fmt"
	"maps"

	"repro/internal/value"
)

type indexKey struct {
	label string
	prop  string
}

// propIndex maps a property value (by hash key) to the set of nodes of the
// indexed label carrying that value. Like every other snapshot component it
// is immutable once published; write transactions clone the byValue table
// and the touched posting sets copy-on-write.
type propIndex struct {
	byValue map[string]map[NodeID]struct{}
}

// CreateIndex creates a property index on (label, prop), populates it from
// the committed state, and publishes a new snapshot carrying it. Equality
// lookups by the query planner and key constraints use it. Open read-only
// transactions keep their pinned snapshot and do not see the index; it must
// not race an open read-write transaction (it would block behind it).
func (s *Store) CreateIndex(label, prop string) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	base := s.snap.Load()
	key := indexKey{label, prop}
	if _, exists := base.indexes[key]; exists {
		return fmt.Errorf("%w: %s.%s", ErrIndexExists, label, prop)
	}
	idx := &propIndex{byValue: make(map[string]map[NodeID]struct{})}
	for id := range base.byLabel[label] {
		if v, ok := base.nodes[id].props.get(prop); ok {
			idx.insert(v, id)
		}
	}
	next := *base
	next.indexes = maps.Clone(base.indexes)
	next.indexes[key] = idx
	s.snap.Store(&next)
	s.metrics.Load().SnapshotsPublished.Inc()
	return nil
}

// DropIndex removes a property index, publishing a new snapshot without it.
func (s *Store) DropIndex(label, prop string) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	base := s.snap.Load()
	key := indexKey{label, prop}
	if _, exists := base.indexes[key]; !exists {
		return fmt.Errorf("%w: %s.%s", ErrIndexNotFound, label, prop)
	}
	next := *base
	next.indexes = maps.Clone(base.indexes)
	delete(next.indexes, key)
	s.snap.Store(&next)
	s.metrics.Load().SnapshotsPublished.Inc()
	return nil
}

// HasIndex reports whether an index exists on (label, prop) in the
// transaction's view.
func (tx *Tx) HasIndex(label, prop string) bool {
	_, ok := tx.view.indexes[indexKey{label, prop}]
	return ok
}

// NodesByProp returns the nodes of the given label whose property equals v,
// using the property index. The second result is false when no index exists
// on (label, prop), in which case the caller must fall back to a scan.
func (tx *Tx) NodesByProp(label, prop string, v value.Value) ([]NodeID, bool) {
	idx, ok := tx.view.indexes[indexKey{label, prop}]
	if !ok {
		return nil, false
	}
	set := idx.byValue[v.HashKey()]
	out := make([]NodeID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	return out, true
}

// CountByProp returns the number of nodes of the given label whose property
// equals v, in O(1) via the property index — the analog of a graph
// database's count store. The second result is false when no index exists.
func (tx *Tx) CountByProp(label, prop string, v value.Value) (int, bool) {
	idx, ok := tx.view.indexes[indexKey{label, prop}]
	if !ok {
		return 0, false
	}
	return len(idx.byValue[v.HashKey()]), true
}

// insert and remove mutate the index directly; they are only valid on
// private, not-yet-published indexes (CreateIndex population, Import).
// In-transaction maintenance goes through Tx.idxInsert/idxRemove, which
// clone copy-on-write first.
func (idx *propIndex) insert(v value.Value, id NodeID) {
	k := v.HashKey()
	set, ok := idx.byValue[k]
	if !ok {
		set = make(map[NodeID]struct{})
		idx.byValue[k] = set
	}
	set[id] = struct{}{}
}

// indexInsertNode updates, for every label of rec, the matching private
// index for property (key, v). Only valid while building a not-yet-published
// snapshot (Import).
func (sn *snapshot) indexInsertNode(rec *nodeRec, key string, v value.Value) {
	for _, label := range rec.labels {
		if idx, ok := sn.indexes[indexKey{label, key}]; ok {
			idx.insert(v, rec.id)
		}
	}
}
