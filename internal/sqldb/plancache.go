package sqldb

import (
	"sync"
	"sync/atomic"
)

// The plan cache memoizes access-path selection per prepared statement.
// Entries are keyed by the *SelectStmt node (a prepared statement reuses
// its AST across executions, so the pointer is a stable identity) and
// stamped with the (schema version, stats epoch) pair they were chosen
// under. A stale stamp counts as an invalidation and forces a re-plan —
// this is how index DDL and stats drift retire plans that reference dropped
// indexes or outdated estimates.
//
// What is cached is the structural template of the plan — which indexes,
// how many equality columns, whether a range/IN probe or covering applies —
// never the probe values: every execution re-derives values from its own
// parameters, so the NULL-probe and incomparable-probe parity fallbacks
// keep working on cache hits. The template itself reflects the first
// execution's estimates (classic parameter sniffing; documented behavior).
//
// Ad-hoc statements (PrepareAdHoc, DB.Query, DB.Exec) parse a fresh AST
// that never runs again, so their plans live in a cache on the executor
// instead: it still serves a subquery re-planned within the statement, and
// it is dropped with the statement rather than pinning dead ASTs in the
// DB's cache.

// planCacheCap bounds entries per cache so churn through many prepared
// statements cannot grow the map without bound; overflow evicts an
// arbitrary entry.
const planCacheCap = 512

// planCacheCounts are process-wide hit/miss/invalidation counters, exported
// on jitd's /metrics as jitd_plan_cache_total{event="hits"|"misses"|
// "invalidations"}.
var planCacheCounts struct {
	hits          atomic.Uint64
	misses        atomic.Uint64
	invalidations atomic.Uint64
}

// PlanCacheCounters snapshots the plan-cache counters since process start.
func PlanCacheCounters() map[string]uint64 {
	return map[string]uint64{
		"hits":          planCacheCounts.hits.Load(),
		"misses":        planCacheCounts.misses.Load(),
		"invalidations": planCacheCounts.invalidations.Load(),
	}
}

// cachedPath is the value-free template of one access path.
type cachedPath struct {
	ix     *tableIndex
	nEq    int
	hasIn  bool
	hasRng bool
}

// cachedPlan is the memoized outcome of one statement level's access-path
// selection against one DB.
type cachedPlan struct {
	schemaVersion uint64
	statsEpoch    uint64
	full          bool // planning found no usable path: go straight to the full scan
	covering      bool
	paths         []cachedPath
}

// instantiate rebuilds concrete access paths from the template and this
// execution's sarg values. ok=false when the sargs no longer carry the
// constraints the template expects (defensive; the caller re-plans).
func (cp *cachedPlan) instantiate(set sargSet) ([]accessPath, bool) {
	if cp.full {
		return nil, true
	}
	paths := make([]accessPath, 0, len(cp.paths))
	for _, t := range cp.paths {
		p := accessPath{ix: t.ix}
		for i := 0; i < t.nEq; i++ {
			cs := set.byCol[t.ix.cols[i]]
			if cs == nil || cs.eq == nil {
				return nil, false
			}
			p.eq = append(p.eq, *cs.eq)
		}
		switch {
		case t.hasIn:
			cs := set.byCol[t.ix.cols[t.nEq]]
			if cs == nil || len(cs.in) == 0 {
				return nil, false
			}
			p.in = cs.in
		case t.hasRng:
			cs := set.byCol[t.ix.cols[t.nEq]]
			if cs == nil || !cs.hasRange() {
				return nil, false
			}
			p.rng = cs
		}
		paths = append(paths, p)
	}
	return paths, true
}

// planTemplateOf strips the chosen paths down to their cacheable template.
func planTemplateOf(schemaV, statsE uint64, paths []accessPath, covering bool) *cachedPlan {
	cp := &cachedPlan{
		schemaVersion: schemaV,
		statsEpoch:    statsE,
		full:          len(paths) == 0,
		covering:      covering,
	}
	for _, p := range paths {
		cp.paths = append(cp.paths, cachedPath{
			ix:     p.ix,
			nEq:    len(p.eq),
			hasIn:  len(p.in) > 0,
			hasRng: p.rng != nil,
		})
	}
	return cp
}

// planCache is the per-DB store (and, for ad-hoc statements, the
// per-executor one). Its own mutex (not the DB lock) guards the map:
// read-locked queries insert entries concurrently.
type planCache struct {
	mu sync.Mutex
	m  map[*SelectStmt]*cachedPlan
}

func (c *planCache) get(sel *SelectStmt) *cachedPlan {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[sel]
}

func (c *planCache) put(sel *SelectStmt, cp *cachedPlan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = make(map[*SelectStmt]*cachedPlan)
	}
	if len(c.m) >= planCacheCap {
		for k := range c.m { // evict an arbitrary entry
			delete(c.m, k)
			break
		}
	}
	c.m[sel] = cp
}

// CachedPlans returns the number of plans in the DB's plan cache: those of
// prepared statements, never of ad-hoc ones.
func (db *DB) CachedPlans() int {
	db.plans.mu.Lock()
	defer db.plans.mu.Unlock()
	return len(db.plans.m)
}

func (c *planCache) drop(sel *SelectStmt) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.m, sel)
}

// planCache returns where this execution caches plans: the DB's cache for a
// prepared statement, the executor's own for an ad-hoc one.
func (ex *executor) planCache() *planCache {
	if !ex.adhoc {
		return &ex.db.plans
	}
	if ex.adhocPlans == nil {
		ex.adhocPlans = &planCache{}
	}
	return ex.adhocPlans
}
