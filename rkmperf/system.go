package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cypher"
	"repro/internal/graph"
	"repro/internal/trigger"
	"repro/internal/value"
	"repro/internal/wal"
)

// system is the knowledge base under test, single-store (kb) or sharded
// (skb). With a nil *opTrace every call goes through the public core API
// (WriteTx, Query, Execute, UpdateInHub, QueryInHub, Query over MultiView).
// With an *opTrace the traced run replays the same sequence of public calls
// core makes — Store.Begin, the write function, ResetData/Compact,
// Engine.Process, Tx.Commit — and records a span around each.
type system struct {
	kb  *core.KnowledgeBase
	skb *core.ShardedKB
	tr  *tracer
	// plans fronts the replayed statements of the traced run the way the
	// knowledge base's own plan cache fronts Query and Execute.
	plans *cypher.PlanCache
}

func newSingle(kb *core.KnowledgeBase, tr *tracer) *system {
	return &system{kb: kb, tr: tr, plans: cypher.NewPlanCache(0)}
}

func newSharded(skb *core.ShardedKB, tr *tracer) *system {
	return &system{skb: skb, tr: tr, plans: cypher.NewPlanCache(0)}
}

func (s *system) now() time.Time {
	if s.kb != nil {
		return s.kb.Now()
	}
	return s.skb.Now()
}

func (s *system) engine() *trigger.Engine {
	if s.kb != nil {
		return s.kb.Engine()
	}
	return s.skb.Engine()
}

// traceCommits installs, for the traced run, commit hooks equivalent to the
// ones core installs on a durable store, with spans around the log append
// and the group-commit durability wait.
func (s *system) traceCommits() {
	if s.tr == nil {
		return
	}
	if s.kb != nil {
		if l := s.kb.WAL(); l != nil {
			s.kb.Store().SetCommitHook(s.tracedHook(l))
		}
		return
	}
	if set := s.skb.WAL(); set != nil {
		for i := 0; i < s.skb.NumShards(); i++ {
			s.skb.Store().Shard(i).SetCommitHook(s.tracedHook(set.Log(i)))
		}
	}
}

func (s *system) tracedHook(l *wal.Log) graph.CommitHook {
	return func(tx *graph.Tx) error {
		if tx.IsApply() {
			return nil
		}
		rec := wal.RecordFromTx(tx)
		if rec == nil {
			return nil
		}
		o := s.tr.forTx(tx)
		o.enter("wal.append")
		seq, err := l.AppendAsync(rec)
		o.exit()
		if err != nil {
			return err
		}
		return tx.OnCommitted(func() error {
			o.enter("wal.durable_wait")
			defer o.exit()
			return l.WaitDurable(seq)
		})
	}
}

// write runs fn as one reactive write transaction on shard (ignored for a
// single store).
func (s *system) write(o *opTrace, shard int, fn func(tx *graph.Tx) error) (*trigger.Report, error) {
	if o == nil {
		if s.kb != nil {
			return s.kb.WriteTx(fn)
		}
		return s.skb.UpdateShard(shard, fn)
	}
	store, lock := s.storeFor(shard)
	o.enter(lock)
	tx := store.Begin(graph.ReadWrite)
	o.exit()
	o.enter("graph.write")
	err := fn(tx)
	o.exit()
	if err != nil {
		tx.Rollback()
		return nil, err
	}
	o.enter("trigger.process")
	data := tx.ResetData()
	data.Compact()
	rep, err := s.engine().Process(tx, data)
	o.exit()
	if err != nil {
		tx.Rollback()
		return rep, err
	}
	// core.KnowledgeBase.WriteTx also applies async backpressure after the
	// commit; the workloads keep the async queue far below its limit, so
	// that step never blocks and is not replayed.
	o.enter("graph.commit")
	o.bindTx(tx)
	err = tx.Commit()
	o.unbindTx(tx)
	o.exit()
	return rep, err
}

func (s *system) storeFor(shard int) (*graph.Store, string) {
	if s.kb != nil {
		return s.kb.Store(), "graph.lock_wait"
	}
	return s.skb.Store().Shard(shard), "shard.lock_wait"
}

func (s *system) prepare(o *opTrace, q string) (*cypher.Plan, error) {
	o.enter("cypher.prepare")
	defer o.exit()
	return s.plans.Get(q)
}

func (s *system) exec(o *opTrace, plan *cypher.Plan, rv graph.ReadView, params map[string]value.Value) (*cypher.Result, error) {
	o.enter("cypher.execute")
	defer o.exit()
	return plan.Execute(rv, &cypher.Options{Params: params, Now: s.now})
}

// execute runs a Cypher write statement reactively (KnowledgeBase.Execute).
func (s *system) execute(o *opTrace, q string, params map[string]value.Value) (*cypher.Result, error) {
	if o == nil {
		return s.kb.Execute(q, params)
	}
	plan, err := s.prepare(o, q)
	if err != nil {
		return nil, err
	}
	var res *cypher.Result
	_, err = s.write(o, 0, func(tx *graph.Tx) error {
		var err error
		res, err = s.exec(o, plan, tx, params)
		return err
	})
	return res, err
}

// query runs a read-only statement: on the single store, on one shard
// (shard >= 0), or across all shards (shard < 0).
func (s *system) query(o *opTrace, shard int, q string, params map[string]value.Value) (*cypher.Result, error) {
	if o == nil {
		switch {
		case s.kb != nil:
			return s.kb.Query(q, params)
		case shard < 0:
			return s.skb.Query(q, params)
		default:
			return s.skb.QueryInHub(s.skb.HubOfShard(shard), q, params)
		}
	}
	plan, err := s.prepare(o, q)
	if err != nil {
		return nil, err
	}
	if s.kb == nil && shard < 0 {
		var res *cypher.Result
		o.enter("graph.view")
		err := s.skb.View(func(v *graph.MultiView) error {
			var err error
			res, err = s.exec(o, plan, v, params)
			return err
		})
		o.exit()
		return res, err
	}
	var store *graph.Store
	if s.kb != nil {
		store = s.kb.Store()
	} else {
		store = s.skb.Store().Shard(shard)
	}
	o.enter("graph.view")
	tx := store.Begin(graph.ReadOnly)
	o.exit()
	defer tx.Rollback()
	return s.exec(o, plan, tx, params)
}

// view runs fn over a committed snapshot of the single store.
func (s *system) view(o *opTrace, fn func(tx *graph.Tx) error) error {
	o.enter("graph.view")
	defer o.exit()
	return s.kb.Store().View(fn)
}

// alertSet reads every alert node as a sorted multiset of canonical keys.
func (s *system) alertSet() ([]string, error) {
	var alerts []core.Alert
	var err error
	if s.kb != nil {
		alerts, err = s.kb.Alerts()
	} else {
		alerts, err = s.skb.Alerts()
	}
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(alerts))
	for _, a := range alerts {
		out = append(out, alertKey(a.Rule, a.Props))
	}
	return sortedCopy(out), nil
}

// alertKey renders an alert's rule and payload columns canonically.
func alertKey(rule string, props map[string]value.Value) string {
	key := rule
	for _, k := range sortedKeys(props) {
		key += fmt.Sprintf(" %s=%v", k, props[k])
	}
	return key
}
