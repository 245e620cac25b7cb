package main

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
)

// span is one timed call into a layer. Spans of one operation share Op;
// Parent is the index of the enclosing span within the operation (-1 for
// the operation's root span).
type span struct {
	Op     uint64 `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span of a traced run in memory; write dumps them at
// the end. A nil *tracer is the untraced run: begin returns a nil *opTrace
// and every method on it is a no-op.
type tracer struct {
	t0    time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
	// byTx hands an operation's trace to the commit hook, which runs inside
	// Tx.Commit on the committing goroutine.
	byTx sync.Map // *graph.Tx -> *opTrace
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// opTrace collects the spans of one operation on one goroutine.
type opTrace struct {
	tr    *tracer
	op    uint64
	spans []span
	stack []int
}

// begin opens the root span of a new operation.
func (tr *tracer) begin(name string) *opTrace {
	if tr == nil {
		return nil
	}
	o := &opTrace{tr: tr, op: tr.next.Add(1)}
	o.enter(name)
	return o
}

func (o *opTrace) enter(name string) {
	if o == nil {
		return
	}
	parent := -1
	if n := len(o.stack); n > 0 {
		parent = o.stack[n-1]
	}
	id := len(o.spans)
	o.spans = append(o.spans, span{Op: o.op, ID: id, Parent: parent, Name: name,
		Start: int64(time.Since(o.tr.t0))})
	o.stack = append(o.stack, id)
}

func (o *opTrace) exit() {
	if o == nil {
		return
	}
	n := len(o.stack) - 1
	o.spans[o.stack[n]].End = int64(time.Since(o.tr.t0))
	o.stack = o.stack[:n]
}

// end closes the root span and hands the operation's spans to the tracer.
func (o *opTrace) end() {
	if o == nil {
		return
	}
	for len(o.stack) > 0 {
		o.exit()
	}
	o.tr.mu.Lock()
	o.tr.spans = append(o.tr.spans, o.spans...)
	o.tr.mu.Unlock()
}

// bindTx lets the commit hook find the operation committing tx.
func (o *opTrace) bindTx(tx *graph.Tx) {
	if o != nil {
		o.tr.byTx.Store(tx, o)
	}
}

func (o *opTrace) unbindTx(tx *graph.Tx) {
	if o != nil {
		o.tr.byTx.Delete(tx)
	}
}

func (tr *tracer) forTx(tx *graph.Tx) *opTrace {
	if tr == nil {
		return nil
	}
	if o, ok := tr.byTx.Load(tx); ok {
		return o.(*opTrace)
	}
	return nil
}

// spanStats aggregates a run's spans.
type spanStats struct {
	self  map[string]time.Duration // summed self time per span name
	total map[string]time.Duration // summed duration per span name
	calls map[string]int
	// opTime is the summed duration of root spans; layerSelf sums self time
	// per layer (the span name's prefix before the first dot).
	opTime    time.Duration
	layerSelf map[string]time.Duration
}

// aggregate computes self times: a span's duration minus the part of it
// its children cover. Children of one span run sequentially, so their
// durations do not overlap.
func (tr *tracer) aggregate() spanStats {
	st := spanStats{
		self:      map[string]time.Duration{},
		total:     map[string]time.Duration{},
		calls:     map[string]int{},
		layerSelf: map[string]time.Duration{},
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	// Spans of one operation are contiguous and indexed by ID from start.
	for i := 0; i < len(tr.spans); {
		j := i
		for j < len(tr.spans) && tr.spans[j].Op == tr.spans[i].Op {
			j++
		}
		ops := tr.spans[i:j]
		child := make([]time.Duration, len(ops))
		for _, s := range ops {
			if s.Parent >= 0 {
				child[s.Parent] += time.Duration(s.End - s.Start)
			}
		}
		for k, s := range ops {
			d := time.Duration(s.End - s.Start)
			self := d - child[k]
			st.self[s.Name] += self
			st.total[s.Name] += d
			st.calls[s.Name]++
			st.layerSelf[layerOf(s.Name)] += self
			if s.Parent < 0 {
				st.opTime += d
			}
		}
		i = j
	}
	return st
}

// layerOf maps a span name to its layer: "graph.commit" -> "graph". Root
// spans ("op.write", ...) are the benchmark's own remainder.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// write dumps the spans as JSON lines to path.
func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	tr.mu.Lock()
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			tr.mu.Unlock()
			f.Close()
			return err
		}
	}
	tr.mu.Unlock()
	return f.Close()
}
