package sqldb

import (
	"fmt"
	"sync/atomic"
)

// planCounts are process-wide per-plan-shape counters, bumped at every plan
// decision (one bump per scan/join/top-k choice, not per row). jitd exports
// them on /metrics as jitd_plan_shapes_total{shape=...}; tests assert on
// deltas, not absolutes.
var planCounts struct {
	fullScan       atomic.Uint64
	indexScan      atomic.Uint64
	emptyProbe     atomic.Uint64
	topK           atomic.Uint64
	indexJoin      atomic.Uint64
	hashJoin       atomic.Uint64
	nestedLoopJoin atomic.Uint64
	coveringScan   atomic.Uint64
}

// PlanCounters snapshots the per-plan-shape execution counters: how many
// times each access-path and join shape was chosen since process start.
func PlanCounters() map[string]uint64 {
	return map[string]uint64{
		"full_scan":        planCounts.fullScan.Load(),
		"index_scan":       planCounts.indexScan.Load(),
		"empty_probe":      planCounts.emptyProbe.Load(),
		"top_k":            planCounts.topK.Load(),
		"index_join":       planCounts.indexJoin.Load(),
		"hash_join":        planCounts.hashJoin.Load(),
		"nested_loop_join": planCounts.nestedLoopJoin.Load(),
		"covering_scan":    planCounts.coveringScan.Load(),
	}
}

// planTrace records the plan decisions of one EXPLAIN execution as a tree:
// one node per SELECT level (subqueries nest), one entry per decision, in
// execution order. A subquery that executes many times (a correlated EXISTS
// probes once per outer row) is recorded at its first execution only.
type planTrace struct {
	root  *planNode
	stack []*planNode
	seen  map[*SelectStmt]bool
}

type planNode struct {
	label   string
	entries []planEntry
}

// planEntry is either a step line (text) or a nested subquery node (child).
type planEntry struct {
	text  string
	child *planNode
}

// tracePush opens a node for sel. A SELECT that was already recorded (a
// correlated subquery re-executing per outer row) gets a detached node
// instead: its notes still land somewhere, but nowhere the rendered tree
// can see, so repeat executions never leak steps into their parent.
func (ex *executor) tracePush(sel *SelectStmt) {
	tr := ex.trace
	if tr.seen[sel] {
		tr.stack = append(tr.stack, &planNode{})
		return
	}
	tr.seen[sel] = true
	label := "subquery"
	if tr.root == nil {
		label = "select"
	}
	node := &planNode{label: label}
	if lv := ex.level(sel); lv != nil && lv.memo != nil {
		node.entries = append(node.entries, planEntry{text: lv.memo.label})
	}
	if tr.root == nil {
		tr.root = node
	} else {
		top := tr.stack[len(tr.stack)-1]
		top.entries = append(top.entries, planEntry{child: node})
	}
	tr.stack = append(tr.stack, node)
}

func (ex *executor) tracePop() {
	ex.trace.stack = ex.trace.stack[:len(ex.trace.stack)-1]
}

// note records one plan step on the innermost traced SELECT. It is a no-op
// when tracing is off or the current SELECT was already recorded.
func (ex *executor) note(format string, args ...interface{}) {
	if ex.trace == nil || len(ex.trace.stack) == 0 {
		return
	}
	top := ex.trace.stack[len(ex.trace.stack)-1]
	top.entries = append(top.entries, planEntry{text: fmt.Sprintf(format, args...)})
}

// render flattens the trace into indented text lines (two spaces per
// nesting level).
func (tr *planTrace) render() []string {
	var lines []string
	var walk func(n *planNode, depth int)
	walk = func(n *planNode, depth int) {
		indent := ""
		for i := 0; i < depth; i++ {
			indent += "  "
		}
		lines = append(lines, indent+n.label)
		for _, e := range n.entries {
			if e.child != nil {
				walk(e.child, depth+1)
			} else {
				lines = append(lines, indent+"  "+e.text)
			}
		}
	}
	if tr.root != nil {
		walk(tr.root, 0)
	}
	return lines
}

// explain executes the SELECT with plan tracing enabled, discards the rows,
// and returns the recorded plan — one text line per result row under the
// single column "plan". Because the query really executes, the plan is the
// one the current data shape actually gets (a NaN probe that falls back to
// a scan shows as the scan it became), and execution errors surface exactly
// as they would without EXPLAIN.
func (ex *executor) explain(sel *SelectStmt) (*Result, error) {
	ex.trace = &planTrace{seen: make(map[*SelectStmt]bool)}
	if _, err := ex.execSelect(sel, nil); err != nil {
		return nil, err
	}
	lines := ex.trace.render()
	rows := make([][]Value, len(lines))
	for i, l := range lines {
		rows[i] = []Value{Text(l)}
	}
	return &Result{Columns: []string{"plan"}, Rows: rows}, nil
}
