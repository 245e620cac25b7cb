package graph

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/value"
)

// exportDoc is the on-disk JSON document shape.
type exportDoc struct {
	Format   string       `json:"format"`
	Nodes    []exportNode `json:"nodes"`
	Rels     []exportRel  `json:"relationships"`
	NextNode int64        `json:"nextNode"`
	NextRel  int64        `json:"nextRel"`
}

type exportNode struct {
	ID     int64          `json:"id"`
	Labels []string       `json:"labels,omitempty"`
	Props  map[string]any `json:"props,omitempty"`
}

type exportRel struct {
	ID    int64          `json:"id"`
	Type  string         `json:"type"`
	Start int64          `json:"start"`
	End   int64          `json:"end"`
	Props map[string]any `json:"props,omitempty"`
}

// exportFormat tags the document version.
const exportFormat = "reactive-graph/v1"

// Export writes the store's content (nodes, relationships, identifier
// counters — not indexes or validators, which are configuration) as JSON.
// The output is deterministic: entities are ordered by identifier and keys
// sort lexicographically, so two stores with equal content export
// byte-identical documents. Export reads the committed snapshot lock-free
// and never blocks a writer, however large the store.
func (s *Store) Export(w io.Writer) error {
	return s.snap.Load().export(w)
}

// Export writes the store's content as seen by the transaction: a
// read-write transaction exports its own uncommitted state, a read-only
// transaction its pinned snapshot. Checkpointing pairs a SnapshotView with
// the write-ahead-log position and exports from it after the write lock is
// released.
func (tx *Tx) Export(w io.Writer) error {
	if tx.done {
		return ErrTxDone
	}
	return tx.view.export(w)
}

func (sn *snapshot) export(w io.Writer) error {
	doc := exportDoc{
		Format:   exportFormat,
		NextNode: int64(sn.nextNode),
		NextRel:  int64(sn.nextRel),
	}
	nodeIDs := make([]NodeID, 0, len(sn.nodes))
	for id := range sn.nodes {
		nodeIDs = append(nodeIDs, id)
	}
	sort.Slice(nodeIDs, func(i, j int) bool { return nodeIDs[i] < nodeIDs[j] })
	for _, id := range nodeIDs {
		rec := sn.nodes[id]
		en := exportNode{ID: int64(id), Labels: rec.labels, Props: rec.props.toJSON()}
		doc.Nodes = append(doc.Nodes, en)
	}
	relIDs := make([]RelID, 0, len(sn.rels))
	for id := range sn.rels {
		relIDs = append(relIDs, id)
	}
	sort.Slice(relIDs, func(i, j int) bool { return relIDs[i] < relIDs[j] })
	for _, id := range relIDs {
		rec := sn.rels[id]
		er := exportRel{
			ID: int64(id), Type: rec.typ,
			Start: int64(rec.start), End: int64(rec.end),
			Props: rec.props.toJSON(),
		}
		doc.Rels = append(doc.Rels, er)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// Import loads a document produced by Export into the store, which must be
// empty. Identifiers are preserved; indexes already created on the store
// are populated as nodes arrive. Validators do NOT run during import (the
// data was valid when exported); subsequent transactions are validated as
// usual. The document is assembled into a private snapshot and published
// atomically, so on error the store is left unchanged and concurrent
// readers never observe a partial import.
func (s *Store) Import(r io.Reader) error {
	var doc exportDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return fmt.Errorf("graph: import: %w", err)
	}
	if doc.Format != exportFormat {
		return fmt.Errorf("graph: import: unknown format %q", doc.Format)
	}
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	base := s.snap.Load()
	if len(base.nodes) != 0 || len(base.rels) != 0 {
		return fmt.Errorf("graph: import requires an empty store")
	}
	next := emptySnapshot()
	for key := range base.indexes {
		next.indexes[key] = &propIndex{byValue: make(map[string]map[NodeID]struct{})}
	}
	for _, en := range doc.Nodes {
		ps, err := propsFromJSON(en.Props)
		if err != nil {
			return fmt.Errorf("graph: import node %d %w", en.ID, err)
		}
		rec := &nodeRec{id: NodeID(en.ID), labels: sortedLabels(en.Labels), props: ps}
		for _, l := range rec.labels {
			next.labelSet(l)[rec.id] = struct{}{}
		}
		next.nodes[rec.id] = rec
		for _, p := range rec.props {
			next.indexInsertNode(rec, p.key, p.val)
		}
	}
	for _, er := range doc.Rels {
		// A bridge half-relationship (exported from one shard of a sharded
		// store) has one endpoint in another shard: tolerate a single missing
		// endpoint and attach adjacency only on the locally present ones.
		start, hasStart := next.nodes[NodeID(er.Start)]
		end, hasEnd := next.nodes[NodeID(er.End)]
		if !hasStart && !hasEnd {
			return fmt.Errorf("graph: import rel %d: both endpoints (%d, %d) missing", er.ID, er.Start, er.End)
		}
		ps, err := propsFromJSON(er.Props)
		if err != nil {
			return fmt.Errorf("graph: import rel %d %w", er.ID, err)
		}
		rec := &relRec{id: RelID(er.ID), typ: er.Type, start: NodeID(er.Start), end: NodeID(er.End), props: ps}
		next.rels[rec.id] = rec
		if hasStart {
			start.out = addRel(start.out, rec)
		}
		if hasEnd {
			end.in = addRel(end.in, rec)
		}
		next.relTypeSet(rec.typ)[rec.id] = struct{}{}
	}
	next.nextNode = NodeID(doc.NextNode)
	next.nextRel = RelID(doc.NextRel)
	// The document's own counters fix the store's allocation band; raising a
	// counter past an imported identifier must stay inside it. A shard's
	// export can contain bridge mirror halves whose identifiers belong to the
	// peer shard's band — letting one of those raise nextRel would drag the
	// counter into a foreign band and corrupt every later allocation (and
	// trip AttachShards' band check on reopen). Those foreign-band records
	// are exactly the mirror halves, so the same band test rebuilds the
	// mirrorRels counter.
	band := ShardOfRel(next.nextRel)
	for _, en := range doc.Nodes {
		if id := NodeID(en.ID); ShardOfNode(id) == ShardOfNode(next.nextNode) && id > next.nextNode {
			next.nextNode = id
		}
	}
	for _, er := range doc.Rels {
		id := RelID(er.ID)
		if ShardOfRel(id) != band {
			next.mirrorRels++
			continue
		}
		if id > next.nextRel {
			next.nextRel = id
		}
	}
	s.snap.Store(next)
	s.metrics.Load().SnapshotsPublished.Inc()
	return nil
}

// toJSON renders a property set for export; nil when it is empty.
func (ps props) toJSON() map[string]any {
	if len(ps) == 0 {
		return nil
	}
	m := make(map[string]any, len(ps))
	for _, p := range ps {
		m[p.key] = value.ToJSON(p.val)
	}
	return m
}

// propsFromJSON decodes an exported property set, dropping NULL values.
func propsFromJSON(raw map[string]any) (props, error) {
	ps := make(props, 0, len(raw))
	for k, x := range raw {
		v, err := value.FromJSON(x)
		if err != nil {
			return nil, fmt.Errorf("prop %s: %w", k, err)
		}
		if !v.IsNull() {
			ps = append(ps, prop{k, v})
		}
	}
	ps.sort()
	return ps, nil
}
