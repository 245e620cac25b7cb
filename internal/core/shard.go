package core

// The hub-sharded knowledge base: the paper's hub partition (§III-A) turned
// into a storage layout. Every hub gets its own graph shard — a full
// single-writer MVCC store with its own write lock, WAL segment stream and
// atomically published snapshot — so transactions that stay inside one hub
// (the common case: guards are intra-hub by design, §III-B) commit fully in
// parallel. Knowledge bridges, the relationships that cross hub borders,
// take a two-shard commit path: both shard locks are held in deterministic
// (ascending index) order and a single durable commit record spanning both
// WAL streams decides the outcome (see wal.ShardSet.AppendBridge).
//
// One rule engine, one hub registry and one metrics registry are shared by
// all shards: rules, hubs and schemas are ontology, not data, exactly as in
// the unsharded KnowledgeBase. trigger.Engine.Process is concurrency-safe,
// so concurrent per-shard writers can cascade rules at the same time; each
// cascade only ever touches the transaction it was handed, which is pinned
// to one shard.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cypher"
	"repro/internal/graph"
	"repro/internal/hub"
	"repro/internal/metrics"
	"repro/internal/periodic"
	"repro/internal/trigger"
	"repro/internal/value"
	"repro/internal/wal"
)

// ErrUnknownShardHub is returned when a hub name is not mapped to a shard.
var ErrUnknownShardHub = errors.New("core: hub is not mapped to a shard")

// HubShard declares one hub of a sharded knowledge base: the hub's name and
// description (registered on the shared hub registry) and the node labels it
// owns. The slice order fixes the shard indexes — it must be identical on
// every open of a durable directory, since shard i recovers from the
// shard-i WAL stream.
type HubShard struct {
	Hub         string
	Description string
	Labels      []string
}

// ShardedKB is a knowledge base whose graph is sharded by hub: shard i
// holds hub i's nodes and its halves of the knowledge bridges touching
// them. Intra-hub writes on different hubs commit in parallel; bridge
// writes span exactly two shards. Compare KnowledgeBase, the single-store
// variant.
type ShardedKB struct {
	store  *graph.ShardedStore
	engine *trigger.Engine
	hubs   *hub.Registry
	clock  periodic.Clock

	shardOf map[string]int // hub name -> shard index
	hubOf   []string       // shard index -> hub name

	// wal is the per-shard write-ahead-log set of a durable sharded
	// knowledge base; nil for in-memory ones.
	wal    *wal.ShardSet
	ckptMu sync.Mutex

	follower    atomic.Bool
	replicaSeqs []atomic.Uint64 // in-memory follower apply cursors, one per shard

	metrics     *metrics.Registry
	mCross      *metrics.Counter
	mAsyncEnq   *metrics.Counter
	mXQuery     *metrics.Counter
	mXQuerySecs *metrics.Histogram

	// plans caches prepared statements keyed by query text; lookups are
	// lock-free, so concurrent per-hub readers never contend on parsing.
	plans *cypher.PlanCache

	mu sync.Mutex
}

// NewSharded creates an empty in-memory sharded knowledge base with one
// shard per declared hub.
func NewSharded(cfg Config, hubs []HubShard) (*ShardedKB, error) {
	if len(hubs) == 0 {
		return nil, errors.New("core: sharded knowledge base needs at least one hub")
	}
	ss, err := graph.NewSharded(len(hubs))
	if err != nil {
		return nil, err
	}
	return assembleSharded(cfg, hubs, ss, nil, wal.Options{}, nil)
}

// OpenShardedDurable opens (or creates) a durable sharded knowledge base
// under dir: shard i persists to the shard-i WAL stream (a subdirectory of
// dir), recovery replays the shards independently and then reconciles
// bridge commits whose prepare half was torn away (see wal.OpenShardSet).
// The hubs slice must match the one the directory was created with. As with
// OpenDurable, rules, schemas and indexes are configuration: the caller
// re-installs them after opening.
func OpenShardedDurable(dir string, cfg Config, hubs []HubShard, wopts wal.Options) (*ShardedKB, []*wal.RecoveryInfo, error) {
	if len(hubs) == 0 {
		return nil, nil, errors.New("core: sharded knowledge base needs at least one hub")
	}
	return openShardedDurable(dir, cfg, hubs, wopts, false)
}

// OpenShardedDurableFollower opens (or creates) a durable sharded knowledge
// base that runs as a replication follower. Unlike OpenShardedDurable it
// installs no per-shard commit hooks — ApplyReplicatedShard mirrors the
// leader's records itself, preserving leader sequence numbers — and flips
// every shard into follower mode. Each recovered stream's LastSeq is that
// shard's apply cursor to resume from.
func OpenShardedDurableFollower(dir string, cfg Config, hubs []HubShard, wopts wal.Options) (*ShardedKB, []*wal.RecoveryInfo, error) {
	return openShardedDurable(dir, cfg, hubs, wopts, true)
}

func openShardedDurable(dir string, cfg Config, hubs []HubShard, wopts wal.Options, follower bool) (*ShardedKB, []*wal.RecoveryInfo, error) {
	set, stores, infos, err := wal.OpenShardSet(dir, len(hubs), wopts)
	if err != nil {
		return nil, nil, err
	}
	ss, err := graph.AttachShards(stores)
	if err != nil {
		set.Close()
		return nil, nil, err
	}
	kb, err := assembleSharded(cfg, hubs, ss, set, wopts, infos)
	if err != nil {
		set.Close()
		return nil, nil, err
	}
	if follower {
		kb.SetFollowerMode(true)
	}
	return kb, infos, nil
}

// assembleSharded wires registry, engine, metrics and (for durable sets)
// per-shard commit hooks around an existing sharded store.
func assembleSharded(cfg Config, defs []HubShard, ss *graph.ShardedStore, set *wal.ShardSet, wopts wal.Options, infos []*wal.RecoveryInfo) (*ShardedKB, error) {
	clock := cfg.Clock
	if clock == nil {
		clock = periodic.RealClock{}
	}
	kb := &ShardedKB{
		store:       ss,
		hubs:        hub.NewRegistry(),
		clock:       clock,
		shardOf:     make(map[string]int, len(defs)),
		hubOf:       make([]string, len(defs)),
		wal:         set,
		replicaSeqs: make([]atomic.Uint64, len(defs)),
		plans:       cypher.NewPlanCache(0),
	}
	for i, d := range defs {
		if _, dup := kb.shardOf[d.Hub]; dup {
			return nil, fmt.Errorf("core: hub %s declared twice", d.Hub)
		}
		if _, err := kb.hubs.Define(d.Hub, d.Description); err != nil {
			return nil, err
		}
		if err := kb.hubs.Own(d.Hub, d.Labels...); err != nil {
			return nil, err
		}
		kb.shardOf[d.Hub] = i
		kb.hubOf[i] = d.Hub
	}

	e := trigger.NewEngine()
	e.MaxCascadeDepth = cfg.MaxCascadeDepth
	e.StrictTermination = cfg.StrictTermination
	e.EnforceIntraHubGuards = cfg.EnforceIntraHubGuards
	if cfg.AlertLabel != "" {
		e.AlertLabel = cfg.AlertLabel
	}
	e.Clock = clock.Now
	e.Resolver = kb.hubs.OwnerOfLabel
	e.SkipLabels = map[string]bool{PendingAlertLabel: true}
	e.AsyncSink = kb.shardAsyncEnqueue
	kb.engine = e

	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	kb.wireShardedMetrics(reg, wopts.Fsync, infos)

	if set != nil {
		for i := 0; i < ss.NumShards(); i++ {
			l := set.Log(i)
			ss.Shard(i).SetCommitHook(func(tx *graph.Tx) error {
				if tx.IsApply() {
					// Replicated batches are mirrored by ApplyReplicatedShard
					// itself, preserving leader sequence numbers.
					return nil
				}
				rec := wal.RecordFromTx(tx)
				if rec == nil {
					return nil
				}
				seq, err := l.AppendAsync(rec)
				if err != nil {
					return err
				}
				return tx.OnCommitted(func() error { return l.WaitDurable(seq) })
			})
		}
	}
	return kb, nil
}

// ---- Accessors ----

// NumShards returns the number of shards (= declared hubs).
func (kb *ShardedKB) NumShards() int { return kb.store.NumShards() }

// Store exposes the underlying sharded graph store. Writes made directly
// through it bypass the rule engine.
func (kb *ShardedKB) Store() *graph.ShardedStore { return kb.store }

// Engine exposes the shared rule engine.
func (kb *ShardedKB) Engine() *trigger.Engine { return kb.engine }

// Hubs exposes the shared hub registry.
func (kb *ShardedKB) Hubs() *hub.Registry { return kb.hubs }

// Clock returns the knowledge base's clock.
func (kb *ShardedKB) Clock() periodic.Clock { return kb.clock }

// Metrics returns the metrics registry.
func (kb *ShardedKB) Metrics() *metrics.Registry { return kb.metrics }

// Durable reports whether the shards persist to write-ahead logs.
func (kb *ShardedKB) Durable() bool { return kb.wal != nil }

// WAL exposes the per-shard write-ahead-log set (nil for in-memory).
func (kb *ShardedKB) WAL() *wal.ShardSet { return kb.wal }

// ShardOf returns the shard index of a hub.
func (kb *ShardedKB) ShardOf(hubName string) (int, bool) {
	i, ok := kb.shardOf[hubName]
	return i, ok
}

// HubOfShard returns the hub name of a shard index.
func (kb *ShardedKB) HubOfShard(i int) string {
	if i < 0 || i >= len(kb.hubOf) {
		return ""
	}
	return kb.hubOf[i]
}

// EnforceHubOwnership installs the hub-ownership validator on every shard.
func (kb *ShardedKB) EnforceHubOwnership() {
	for i := 0; i < kb.store.NumShards(); i++ {
		kb.hubs.Enforce(kb.store.Shard(i))
	}
}

// InstallRule compiles and installs a reactive rule (shared by all shards).
func (kb *ShardedKB) InstallRule(r trigger.Rule) error { return kb.engine.Install(r) }

// InstallRuleText parses a CREATE TRIGGER declaration and installs it.
func (kb *ShardedKB) InstallRuleText(src string) (trigger.Rule, error) {
	return kb.engine.InstallText(src)
}

// Rules lists installed rules with their classifications.
func (kb *ShardedKB) Rules() []trigger.RuleInfo { return kb.engine.Rules() }

// DropRule uninstalls a rule (shared by all shards).
func (kb *ShardedKB) DropRule(name string) error { return kb.engine.Drop(name) }

// TranslateRulesAPOC exports every installed rule as a Neo4j APOC trigger
// installation call (Fig. 6/7 translation); untranslatable rules are listed
// in skipped.
func (kb *ShardedKB) TranslateRulesAPOC(dbName, phase string) (translated, skipped []string) {
	return kb.engine.TranslateAllAPOC(dbName, phase)
}

// Now reads the knowledge base's clock.
func (kb *ShardedKB) Now() time.Time { return kb.clock.Now() }

// Role names this instance's replication role, qualified as sharded.
func (kb *ShardedKB) Role() string {
	if kb.Follower() {
		return "sharded-follower"
	}
	return "sharded-leader"
}

func (kb *ShardedKB) checkShard(i int) error {
	if i < 0 || i >= kb.store.NumShards() {
		return fmt.Errorf("core: shard %d out of range [0,%d)", i, kb.store.NumShards())
	}
	return nil
}

// ---- Write paths ----

// UpdateInHub runs fn in a read-write transaction on the named hub's shard,
// fires the reactive rules over its changes, and commits. Updates on
// different hubs proceed fully in parallel — each takes only its own
// shard's write lock and appends to its own WAL stream.
func (kb *ShardedKB) UpdateInHub(hubName string, fn func(tx *graph.Tx) error) (*trigger.Report, error) {
	i, ok := kb.shardOf[hubName]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownShardHub, hubName)
	}
	return kb.UpdateShard(i, fn)
}

// UpdateShard is UpdateInHub by shard index.
func (kb *ShardedKB) UpdateShard(i int, fn func(tx *graph.Tx) error) (*trigger.Report, error) {
	if err := kb.checkShard(i); err != nil {
		return nil, err
	}
	if kb.follower.Load() {
		return nil, ErrFollower
	}
	tx := kb.store.Shard(i).Begin(graph.ReadWrite)
	if err := fn(tx); err != nil {
		tx.Rollback()
		return nil, err
	}
	data := tx.ResetData()
	data.Compact()
	rep, err := kb.engine.Process(tx, data)
	if err != nil {
		tx.Rollback()
		return rep, err
	}
	return rep, tx.Commit()
}

// UpdateBridge runs fn in a two-shard bridge transaction spanning the two
// named hubs: both shard locks are taken in ascending index order (the
// deterministic order that makes concurrent bridges deadlock-free), fn may
// create knowledge bridges between the hubs through the BridgeTx, the
// reactive rules fire over each side's changes, and the commit appends a
// single durable commit record spanning both WAL streams before either
// shard's snapshot is published.
//
// The rule cascade runs per side: a rule triggered by the lower shard's
// changes reads and writes the lower shard only (guards are intra-hub by
// design, so this is the paper's locality assumption made physical).
//
// A non-nil error with a non-nil report means the bridge committed but a
// post-commit durability wait failed — the same contract as the group
// commit path of a single-shard write.
func (kb *ShardedKB) UpdateBridge(hubA, hubB string, fn func(bt *graph.BridgeTx) error) (*trigger.Report, error) {
	a, ok := kb.shardOf[hubA]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownShardHub, hubA)
	}
	b, ok := kb.shardOf[hubB]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownShardHub, hubB)
	}
	return kb.UpdateBridgeShards(a, b, fn)
}

// UpdateBridgeShards is UpdateBridge by shard index.
func (kb *ShardedKB) UpdateBridgeShards(a, b int, fn func(bt *graph.BridgeTx) error) (*trigger.Report, error) {
	if err := kb.checkShard(a); err != nil {
		return nil, err
	}
	if err := kb.checkShard(b); err != nil {
		return nil, err
	}
	if kb.follower.Load() {
		return nil, ErrFollower
	}
	bt, err := kb.store.BeginBridge(a, b)
	if err != nil {
		return nil, err
	}
	if err := fn(bt); err != nil {
		bt.Rollback()
		return nil, err
	}
	lo, hi := bt.Shards()
	total := &trigger.Report{}
	for _, idx := range []int{lo, hi} {
		tx, err := bt.ShardTx(idx)
		if err != nil {
			bt.Rollback()
			return nil, err
		}
		data := tx.ResetData()
		data.Compact()
		rep, err := kb.engine.Process(tx, data)
		mergeReports(total, rep)
		if err != nil {
			bt.Rollback()
			return total, err
		}
	}
	var durErr error
	if err := bt.Commit(kb.sealBridge(lo, hi, &durErr)); err != nil {
		return total, err
	}
	kb.mCross.Inc()
	return total, durErr
}

// sealBridge builds the seal callback for a bridge commit: while both shard
// locks are held it appends the two-stream commit record pair and waits for
// durability, so the bridge outcome is decided on disk before either
// snapshot becomes visible. An error after the commit record was appended
// does not abort the commit (the record may have reached disk; aborting
// could diverge memory from log) — it is stashed in *durErr and surfaced by
// UpdateBridgeShards, mirroring the group-commit fsync contract.
func (kb *ShardedKB) sealBridge(lo, hi int, durErr *error) func(loTx, hiTx *graph.Tx) error {
	if kb.wal == nil {
		return nil
	}
	return func(loTx, hiTx *graph.Tx) error {
		loRec := wal.RecordFromTx(loTx)
		hiRec := wal.RecordFromTx(hiTx)
		switch {
		case loRec == nil && hiRec == nil:
			return nil
		case hiRec == nil:
			// Only one side changed: an ordinary single-stream commit.
			return kb.appendOne(lo, loTx, loRec)
		case loRec == nil:
			return kb.appendOne(hi, hiTx, hiRec)
		}
		committed, err := kb.wal.AppendBridge(lo, hi, loRec, hiRec)
		if err != nil && !committed {
			return err
		}
		*durErr = err
		return nil
	}
}

// appendOne appends a record to one shard's log under the held locks and
// defers the durability wait to after publication (group commit).
func (kb *ShardedKB) appendOne(idx int, tx *graph.Tx, rec *wal.Record) error {
	l := kb.wal.Log(idx)
	seq, err := l.AppendAsync(rec)
	if err != nil {
		return err
	}
	return tx.OnCommitted(func() error { return l.WaitDurable(seq) })
}

// mergeReports folds src into dst (counters sum, activations concatenate).
func mergeReports(dst, src *trigger.Report) {
	if src == nil {
		return
	}
	dst.Rounds += src.Rounds
	dst.GuardChecks += src.GuardChecks
	dst.GuardPasses += src.GuardPasses
	dst.AlertRuns += src.AlertRuns
	dst.AlertNodes += src.AlertNodes
	dst.Activations = append(dst.Activations, src.Activations...)
	dst.RulesConsidered += src.RulesConsidered
	dst.AsyncEnqueued += src.AsyncEnqueued
	dst.AsyncShed += src.AsyncShed
}

// ---- Read paths ----

// prepare resolves a query to its cached Plan, parsing on first sight.
func (kb *ShardedKB) prepare(query string) (*cypher.Plan, error) {
	return kb.plans.Get(query)
}

// PlanCacheStats snapshots the shared plan cache's size and hit counters.
func (kb *ShardedKB) PlanCacheStats() cypher.PlanCacheStats { return kb.plans.Stats() }

// Query runs a read-only statement across all shards at once, lock-free:
// every shard's committed snapshot is pinned independently and the plan
// executes over the resulting multi-shard view. A MATCH that crosses a
// knowledge bridge follows it from either side and binds the bridge exactly
// once (both halves share one relationship identifier). Anchor selection
// costs against cardinalities aggregated over all shards, and the compiled
// variant is cached per backing store, so per-hub reads on skewed shards
// never execute a plan costed for the sharded view or vice versa. Write
// clauses fail: cross-shard views take no shard locks and are read-only.
func (kb *ShardedKB) Query(query string, params map[string]value.Value) (*cypher.Result, error) {
	plan, err := kb.prepare(query)
	if err != nil {
		return nil, err
	}
	var t0 time.Time
	if kb.mXQuerySecs != nil {
		t0 = time.Now()
	}
	v := kb.store.View()
	defer v.Rollback()
	res, err := plan.Execute(v, &cypher.Options{Params: params, Now: kb.clock.Now})
	if err != nil {
		return nil, err
	}
	if kb.mXQuery != nil {
		kb.mXQuery.Inc()
		kb.mXQuerySecs.ObserveSince(t0)
	}
	return res, nil
}

// ExplainQuery renders the compiled plan a cross-shard Query for this
// statement would run: anchor choices are costed against label and index
// cardinalities aggregated over every shard.
func (kb *ShardedKB) ExplainQuery(query string) (string, error) {
	plan, err := kb.prepare(query)
	if err != nil {
		return "", err
	}
	v := kb.store.View()
	defer v.Rollback()
	return cypher.Explain(v, plan.Statement()), nil
}

// Alerts lists the alert nodes of every shard, oldest first (by dateTime,
// then id). Alert nodes are created in the shard of the hub whose rule
// fired, so the list is assembled over a multi-shard view.
func (kb *ShardedKB) Alerts() ([]Alert, error) {
	label := kb.engine.AlertLabel
	if label == "" {
		label = trigger.DefaultAlertLabel
	}
	var out []Alert
	err := kb.View(func(v *graph.MultiView) error {
		for _, id := range v.NodesByLabel(label) {
			n, ok := v.Node(id)
			if !ok {
				continue
			}
			a := Alert{ID: id, Props: make(map[string]value.Value)}
			for k, pv := range n.Props {
				switch k {
				case "rule":
					a.Rule, _ = pv.AsString()
				case "hub":
					a.Hub, _ = pv.AsString()
				case "dateTime":
					a.DateTime, _ = pv.AsDateTime()
				default:
					a.Props[k] = pv
				}
			}
			out = append(out, a)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].DateTime.Equal(out[j].DateTime) {
			return out[i].DateTime.Before(out[j].DateTime)
		}
		return out[i].ID < out[j].ID
	})
	return out, nil
}

// QueryInHub runs a read-only statement against the named hub's shard,
// lock-free on its committed snapshot. The query sees that hub's nodes and
// its halves of the knowledge bridges touching them.
func (kb *ShardedKB) QueryInHub(hubName, query string, params map[string]value.Value) (*cypher.Result, error) {
	i, ok := kb.shardOf[hubName]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownShardHub, hubName)
	}
	plan, err := kb.prepare(query)
	if err != nil {
		return nil, err
	}
	tx := kb.store.Shard(i).Begin(graph.ReadOnly)
	defer tx.Rollback()
	return plan.Execute(tx, &cypher.Options{Params: params, Now: kb.clock.Now})
}

// ExecuteInHub runs a statement in a read-write transaction on the named
// hub's shard, fires the reactive rules, and commits.
func (kb *ShardedKB) ExecuteInHub(hubName, query string, params map[string]value.Value) (*cypher.Result, *trigger.Report, error) {
	i, ok := kb.shardOf[hubName]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s", ErrUnknownShardHub, hubName)
	}
	plan, err := kb.prepare(query)
	if err != nil {
		return nil, nil, err
	}
	var res *cypher.Result
	rep, uerr := kb.UpdateShard(i, func(tx *graph.Tx) error {
		var err error
		res, err = plan.Execute(tx, &cypher.Options{Params: params, Now: kb.clock.Now})
		return err
	})
	if uerr != nil {
		return nil, rep, uerr
	}
	return res, rep, nil
}

// View runs fn over a multi-shard read view: each shard's snapshot is
// pinned lock-free and independently, so the view is per-shard consistent
// but makes no cross-shard ordering promise. Use BarrierView on the store
// for a cross-shard-consistent cut.
func (kb *ShardedKB) View(fn func(v *graph.MultiView) error) error {
	v := kb.store.View()
	defer v.Rollback()
	return fn(v)
}

// ViewShard runs fn over one shard's committed snapshot.
func (kb *ShardedKB) ViewShard(i int, fn func(tx *graph.Tx) error) error {
	if err := kb.checkShard(i); err != nil {
		return err
	}
	return kb.store.Shard(i).View(fn)
}

// ExportShard writes one shard's content as a deterministic JSON document.
// Two recoveries of the same committed state export byte-identical
// documents per shard; the crash tests rely on this.
func (kb *ShardedKB) ExportShard(i int, w io.Writer) error {
	if err := kb.checkShard(i); err != nil {
		return err
	}
	return kb.store.Shard(i).Export(w)
}

// ---- Asynchronous alerts ----

// shardAsyncEnqueue is the engine's AsyncSink on a sharded knowledge base:
// the passing AfterAsync binding is staged as a PendingAlert node inside
// the triggering transaction — which is pinned to the triggering shard, so
// the pending queue is per-shard and rides that shard's WAL stream.
// Entries are drained by DrainAsync; there is no background pipeline.
func (kb *ShardedKB) shardAsyncEnqueue(tx *graph.Tx, item trigger.AsyncItem) (bool, error) {
	enc, err := trigger.EncodeBinding(item.Binding)
	if err != nil {
		return false, err
	}
	_, err = tx.CreateNode([]string{PendingAlertLabel}, map[string]value.Value{
		pendingRuleProp:    value.Str(item.Rule),
		pendingBindingProp: value.Str(enc),
		pendingAtProp:      value.DateTime(kb.clock.Now()),
	})
	if err != nil {
		return false, err
	}
	return true, tx.OnCommitted(func() error {
		kb.mAsyncEnq.Inc()
		return nil
	})
}

// AsyncDepth returns the number of PendingAlert entries across all shards.
func (kb *ShardedKB) AsyncDepth() int {
	n := 0
	for i := 0; i < kb.store.NumShards(); i++ {
		n += kb.store.Shard(i).LabelCount(PendingAlertLabel)
	}
	return n
}

// DrainAsync synchronously evaluates and materializes every staged
// AfterAsync activation, shard by shard in enqueue (node-id) order, each in
// a follow-up transaction on its own shard that deletes the PendingAlert
// node and creates the alerts atomically (exactly-once across crashes, as
// in the unsharded pipeline). The async alert query of an entry evaluates
// against the shard that staged it: on a sharded knowledge base even
// AfterAsync queries are per-hub. Entries that fail stay queued (and are
// reported joined); corrupt or orphaned entries are discarded.
func (kb *ShardedKB) DrainAsync() (int, error) {
	if kb.follower.Load() {
		return 0, ErrFollower
	}
	done := 0
	var errs []error
	for i := 0; i < kb.store.NumShards(); i++ {
		skip := make(map[graph.NodeID]bool)
		for {
			entries := kb.collectPending(i, skip)
			if len(entries) == 0 {
				break
			}
			for _, en := range entries {
				ok, err := kb.processPending(i, en)
				if err != nil {
					skip[en.id] = true
					errs = append(errs, fmt.Errorf("core: shard %d pending %d: %w", i, en.id, err))
					continue
				}
				if ok {
					done++
				}
			}
		}
	}
	return done, errors.Join(errs...)
}

// collectPending reads shard i's committed PendingAlert entries in node-id
// (= enqueue) order, excluding failed ones from this drain.
func (kb *ShardedKB) collectPending(i int, skip map[graph.NodeID]bool) []pendingEntry {
	var out []pendingEntry
	_ = kb.store.Shard(i).View(func(tx *graph.Tx) error {
		ids := tx.NodesByLabel(PendingAlertLabel)
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		for _, id := range ids {
			if skip[id] {
				continue
			}
			n, ok := tx.Node(id)
			if !ok {
				continue
			}
			en := pendingEntry{id: id}
			if v, ok := n.Props[pendingRuleProp]; ok {
				en.rule, _ = v.AsString()
			}
			if v, ok := n.Props[pendingBindingProp]; ok {
				en.binding, _ = v.AsString()
			}
			out = append(out, en)
		}
		return nil
	})
	return out
}

// processPending evaluates one entry against shard i and consumes it in a
// follow-up transaction; ok reports whether alerts were materialized (false
// for discarded entries).
func (kb *ShardedKB) processPending(i int, en pendingEntry) (bool, error) {
	bind, err := trigger.DecodeBinding(en.binding)
	if err != nil {
		// Corrupt payload: nothing can ever evaluate it. Drop it.
		return false, kb.discardPending(i, en.id)
	}
	ro := kb.store.Shard(i).Begin(graph.ReadOnly)
	cols, rows, err := kb.engine.EvaluateAsync(ro, en.rule, bind)
	ro.Rollback()
	if errors.Is(err, trigger.ErrRuleNotFound) {
		return false, kb.discardPending(i, en.id)
	}
	if err != nil {
		return false, err
	}
	_, err = kb.UpdateShard(i, func(tx *graph.Tx) error {
		if !tx.NodeExists(en.id) {
			return nil // already consumed
		}
		if err := tx.DeleteNode(en.id, true); err != nil {
			return err
		}
		_, err := kb.engine.MaterializeAsync(tx, en.rule, bind, cols, rows)
		return err
	})
	return err == nil, err
}

// discardPending removes an unprocessable entry without firing rules.
func (kb *ShardedKB) discardPending(i int, id graph.NodeID) error {
	return kb.store.Shard(i).Update(func(tx *graph.Tx) error {
		if !tx.NodeExists(id) {
			return nil
		}
		return tx.DeleteNode(id, true)
	})
}

// ---- Checkpointing ----

// Checkpoint snapshots every shard at one cross-shard-consistent cut and
// compacts each shard's log down to it: all shard locks are taken (in
// ascending order, like a bridge), every log is cut at that instant, then
// the pinned views are exported and installed with the locks released.
//
// The SyncAll before compaction is a correctness requirement, not an
// optimization: a bridge's commit record (in the lower shard's stream) may
// only be compacted away once the higher shard durably holds the matching
// BridgeDone marker — otherwise a crash could leave a prepare with no
// surviving evidence of commitment. Any marker at or below the cut was
// appended before the barrier (bridges hold both locks through the marker
// append), so one SyncAll here durably covers them all.
func (kb *ShardedKB) Checkpoint() error {
	if kb.wal == nil {
		return ErrNotDurable
	}
	kb.ckptMu.Lock()
	defer kb.ckptMu.Unlock()
	n := kb.store.NumShards()
	seqs := make([]uint64, n)
	view, err := kb.store.BarrierView(func() error {
		for i := 0; i < n; i++ {
			seq, err := kb.wal.Log(i).Cut()
			if err != nil {
				return err
			}
			seqs[i] = seq
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer view.Rollback()
	if err := kb.wal.SyncAll(); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		var buf bytes.Buffer
		if err := view.ShardTx(i).Export(&buf); err != nil {
			return err
		}
		if err := kb.wal.Log(i).Checkpoint(seqs[i], buf.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// CheckpointShard snapshots and compacts a single shard without touching
// the others' write locks: per-hub checkpointing stays independent, so a
// hot hub can compact on its own schedule. The SyncAll before compaction
// carries the same bridge-marker invariant as Checkpoint.
func (kb *ShardedKB) CheckpointShard(i int) error {
	if kb.wal == nil {
		return ErrNotDurable
	}
	if err := kb.checkShard(i); err != nil {
		return err
	}
	kb.ckptMu.Lock()
	defer kb.ckptMu.Unlock()
	var seq uint64
	view, err := kb.store.Shard(i).SnapshotView(func() error {
		var err error
		seq, err = kb.wal.Log(i).Cut()
		return err
	})
	if err != nil {
		return err
	}
	defer view.Rollback()
	if err := kb.wal.SyncAll(); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := view.Export(&buf); err != nil {
		return err
	}
	return kb.wal.Log(i).Checkpoint(seq, buf.Bytes())
}

// Close flushes and closes every shard's write-ahead log (no-op for an
// in-memory sharded knowledge base).
func (kb *ShardedKB) Close() error {
	if kb.wal == nil {
		return nil
	}
	return kb.wal.Close()
}

// ---- Replication plumbing ----

// SetFollowerMode flips the whole sharded knowledge base into (or out of)
// replication-follower mode: ordinary writes fail with ErrFollower and
// state arrives only through ApplyReplicatedShard. Each shard's record
// stream replicates independently — per-shard streaming cursors, one per
// shard directory, exactly as with unsharded replicas.
func (kb *ShardedKB) SetFollowerMode(on bool) {
	kb.follower.Store(on)
	for i := 0; i < kb.store.NumShards(); i++ {
		kb.store.Shard(i).SetFollowerMode(on)
	}
}

// Follower reports whether this sharded knowledge base is a follower.
func (kb *ShardedKB) Follower() bool { return kb.follower.Load() }

// ShardAppliedSeq returns a follower shard's apply cursor.
func (kb *ShardedKB) ShardAppliedSeq(i int) uint64 {
	if kb.wal != nil {
		return kb.wal.Log(i).LastSeq()
	}
	return kb.replicaSeqs[i].Load()
}

// ApplyReplicatedShard applies a contiguous batch of leader records to one
// shard of a follower, mirroring KnowledgeBase.ApplyReplicated per shard:
// the batch must start at ShardAppliedSeq(i)+1, is replayed in one apply
// transaction, mirrored into the shard's own log with leader sequence
// numbers preserved, and made durable with one group-commit wait. Bridge
// records need no special handling here — each stream carries its own
// shard's half of every bridge, so per-shard independent apply reproduces
// the leader's shards exactly.
func (kb *ShardedKB) ApplyReplicatedShard(i int, recs []*wal.Record) error {
	if !kb.follower.Load() {
		return errors.New("core: ApplyReplicatedShard on a leader knowledge base")
	}
	if err := kb.checkShard(i); err != nil {
		return err
	}
	if len(recs) == 0 {
		return nil
	}
	want := kb.ShardAppliedSeq(i) + 1
	for j, rec := range recs {
		if rec.Seq != want+uint64(j) {
			return fmt.Errorf("core: shard %d replicated batch not contiguous: record %d has seq %d, want %d",
				i, j, rec.Seq, want+uint64(j))
		}
	}
	tx := kb.store.Shard(i).BeginApply()
	for _, rec := range recs {
		if err := wal.ApplyRecord(tx, rec); err != nil {
			tx.Rollback()
			return fmt.Errorf("core: shard %d apply record %d: %w", i, rec.Seq, err)
		}
	}
	appended := 0
	if kb.wal != nil {
		l := kb.wal.Log(i)
		for j, rec := range recs {
			if err := l.AppendReplicated(rec); err != nil {
				tx.Rollback()
				if j > 0 {
					return fmt.Errorf("core: shard %d mirror record %d: %v: %w", i, rec.Seq, err, ErrReplicaDiverged)
				}
				return fmt.Errorf("core: shard %d mirror record %d: %w", i, rec.Seq, err)
			}
			appended = j + 1
		}
	}
	if err := tx.Commit(); err != nil {
		if appended > 0 {
			return fmt.Errorf("core: shard %d commit replicated batch: %v: %w", i, err, ErrReplicaDiverged)
		}
		return fmt.Errorf("core: shard %d commit replicated batch: %w", i, err)
	}
	last := recs[len(recs)-1].Seq
	if kb.wal != nil {
		if err := kb.wal.Log(i).WaitDurable(last); err != nil {
			return fmt.Errorf("core: shard %d replicated batch durability: %v: %w", i, err, ErrReplicaDiverged)
		}
	} else {
		kb.replicaSeqs[i].Store(last)
	}
	return nil
}

// ---- Metrics ----

// wireShardedMetrics registers the sharded knowledge base's instruments:
// the per-shard rkm_shard_* family plus the shared engine and graph totals,
// using the same names (and help strings) as the unsharded wiring so a
// registry shared between variants aggregates cleanly.
func (kb *ShardedKB) wireShardedMetrics(reg *metrics.Registry, policy wal.FsyncPolicy, infos []*wal.RecoveryInfo) {
	kb.metrics = reg
	kb.engine.Metrics = trigger.EngineMetrics{
		RuleFired: reg.CounterVec(mRuleFired, "rule",
			"Guard passes (rule activations), by rule."),
		GuardRejected: reg.CounterVec(mGuardRejected, "rule",
			"Guard evaluations that returned false, by rule."),
		AlertQuerySeconds: reg.Histogram(mAlertQuery,
			"Latency of alert-query executions, in seconds.", nil),
		AlertsCreated: reg.Counter(mAlertsCreated,
			"Alert nodes materialized by the rule engine."),
	}
	kb.mCross = reg.Counter(mShardCrossCommits,
		"Committed two-shard bridge transactions.")
	kb.mAsyncEnq = reg.Counter(mAsyncEnqueued,
		"AfterAsync activations committed onto the pending queue.")
	kb.mXQuery = reg.Counter(mShardQueries,
		"Cross-shard read-only queries executed over a multi-shard view.")
	kb.mXQuerySecs = reg.Histogram(mShardQuerySeconds,
		"Latency of cross-shard read-only queries, in seconds.", nil)
	kb.plans.SetMetrics(
		reg.Counter(mPlanCacheHits,
			"Plan-cache lookups served from the cache."),
		reg.Counter(mPlanCacheMisses,
			"Plan-cache lookups that had to parse the query."),
		reg.Counter(mPlanCacheEvictions,
			"Plans evicted from the cache by capacity pressure."))
	reg.GaugeFunc(mPlanCacheSize,
		"Prepared plans currently held by this knowledge base's plan cache.",
		func() float64 { return float64(kb.plans.Len()) })
	reg.GaugeFunc(mPlansCompiled,
		"Plan variants compiled process-wide (recompiles on statistics drift included).",
		func() float64 { return float64(cypher.PlansCompiled()) })

	commits := reg.CounterVec(mShardCommits, "shard",
		"Committed read-write transactions, by shard.")
	lockWait := reg.HistogramVec(mShardLockWait, "shard",
		"Time writers waited for a shard's write lock, in seconds, by shard.", nil)
	for i := 0; i < kb.store.NumShards(); i++ {
		label := strconv.Itoa(i)
		kb.store.Shard(i).SetMetrics(graph.Metrics{
			TxCommits: commits.With(label),
			TxRollbacks: reg.Counter(mTxRollbacks,
				"Rolled-back read-write transactions (explicit and aborted commits)."),
			TxSeconds: reg.Histogram(mTxSeconds,
				"Read-write transaction latency (write-lock hold time), in seconds.", nil),
			SnapshotsPublished: reg.Counter(mSnapPublished,
				"Committed snapshot versions published (write commits, index changes, imports)."),
			SnapshotReads: reg.Counter(mSnapReads,
				"Read-only transactions served lock-free from a published snapshot."),
			RecordsCloned: reg.Counter(mSnapCloned,
				"Node and relationship records cloned copy-on-write by write transactions."),
			COWMapClones: reg.Counter(mCOWMapClones,
				"Whole maps copied copy-on-write by write transactions (first touch only)."),
			COWMapClonedEntries: reg.Counter(mCOWMapEntries,
				"Entries held by the maps write transactions copied copy-on-write."),
			LockWaitSeconds: lockWait.With(label),
		})
	}

	reg.GaugeFunc(mNodes, "Nodes currently in the graph.", func() float64 {
		n := 0
		for i := 0; i < kb.store.NumShards(); i++ {
			n += kb.store.Shard(i).Stats().Nodes
		}
		return float64(n)
	})
	reg.GaugeFunc(mRels, "Relationships currently in the graph.", func() float64 {
		n := 0
		for i := 0; i < kb.store.NumShards(); i++ {
			n += kb.store.Shard(i).Stats().Relationships
		}
		return float64(n)
	})
	reg.GaugeFunc(mAlertNodes, "Alert nodes currently in the graph.", func() float64 {
		n := 0
		for i := 0; i < kb.store.NumShards(); i++ {
			n += kb.store.Shard(i).LabelCount(kb.engine.AlertLabel)
		}
		return float64(n)
	})
	reg.GaugeFunc(mAsyncQueueDepth,
		"PendingAlert entries currently on the async queue.",
		func() float64 { return float64(kb.AsyncDepth()) })

	if kb.wal == nil {
		return
	}
	fsync := reg.HistogramVec(mShardWALFsync, "shard",
		"Latency of per-shard write-ahead-log fsyncs, in seconds, by shard.", nil)
	for i := 0; i < kb.wal.NumShards(); i++ {
		kb.wal.Log(i).SetMetrics(wal.Metrics{
			RecordsAppended: reg.Counter(mWALRecords,
				"Records appended to the write-ahead log."),
			BytesAppended: reg.Counter(mWALBytes,
				"Framed bytes appended to the write-ahead log."),
			FsyncSeconds: fsync.With(strconv.Itoa(i)),
			SegmentsOpened: reg.Counter(mWALSegments,
				"Write-ahead-log segment files opened (first open and rotations)."),
			CheckpointSeconds: reg.Histogram(mWALCheckpoint,
				"End-to-end checkpoint duration, in seconds.", nil),
			GroupCommitTxs: reg.Counter(mWALGroupTxs,
				"Transactions that went through the group-commit durability wait."),
			GroupCommitSyncs: reg.Counter(mWALGroupSyncs,
				"Shared fsyncs issued by group commit (txs/syncs = batch factor)."),
			GroupCommitBatchTxs: reg.Histogram(mWALGroupBatch,
				"Transactions made durable by each shared group-commit fsync.",
				[]float64{1, 2, 4, 8, 16, 32, 64, 128}),
		})
	}
	replayed, discarded := 0, int64(0)
	for _, info := range infos {
		if info != nil {
			replayed += info.RecordsReplayed
			discarded += info.DiscardedBytes
		}
	}
	reg.Gauge(mWALReplayed,
		"Records replayed on top of the snapshot during the last recovery.").
		Set(float64(replayed))
	reg.Gauge(mWALDiscarded,
		"Bytes of torn log tail discarded during the last recovery.").
		Set(float64(discarded))
}
