package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"expvar"
	"fmt"
	"hash/maphash"
	"log/slog"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"justintime/internal/core"
	"justintime/internal/fault"
	"justintime/internal/obs"
	"justintime/internal/sqldb/persist"
)

// newSessionID returns an unguessable session identifier (128 bits from
// crypto/rand). Session IDs are capability tokens — whoever holds one can
// read the applicant's whole candidates database — so they must not be
// enumerable the way sequential IDs are.
func newSessionID() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("server: generating session id: %w", err)
	}
	return "s-" + hex.EncodeToString(b[:]), nil
}

// entryState is the per-session lifecycle state machine. It exists so that
// persistence I/O can run outside the shard lock: the shard map only records
// *which phase* a session is in, and the goroutine that moved an entry into
// a transitional state owns finishing (or aborting) that transition.
type entryState uint8

const (
	// stateLive: resident and servable; any request may touch it.
	stateLive entryState = iota
	// stateCheckpointing: an evictor claimed this entry and is writing its
	// checkpoint outside the shard lock. The session is still fully
	// servable — a request that arrives mid-checkpoint marks the entry
	// touched, which aborts the eviction instead of racing it.
	stateCheckpointing
)

// sessionEntry is one memory-resident session with its LRU bookkeeping,
// state-machine phase and, when persistence is on, the open snapshot+WAL
// store backing it. All fields are guarded by the owning shard's mutex;
// sess/store are read outside it only by the goroutine that owns the
// entry's current transition.
type sessionEntry struct {
	sess     *core.Session
	store    *persist.Store // nil when running memory-only
	lastUsed time.Time
	state    entryState
	touched  bool // a get arrived mid-checkpoint: abort the eviction
	deleted  bool // a DELETE arrived mid-checkpoint: finish by discarding
}

// rehydration is one in-flight disk load, the unit of singleflight
// coalescing: the first goroutine to miss on a cold id becomes the winner
// and performs the load; every later miss for the same id blocks on done
// and shares the result instead of replaying the WAL again.
type rehydration struct {
	done    chan struct{}
	sess    *core.Session // valid iff ok, set before done closes
	ok      bool
	deleted bool // a DELETE raced the load: winner discards, waiters miss
}

// sessionShard is one lock domain of the manager: a private map of resident
// entries plus the in-flight rehydrations keyed into this shard. Lookups,
// inserts and evictions on different shards never contend.
type sessionShard struct {
	m        *sessionManager
	mu       sync.Mutex
	entries  map[string]*sessionEntry
	inflight map[string]*rehydration
	// deleting tombstones ids whose DELETE is between "forgotten in memory"
	// and "files gone from disk". A rehydration that starts inside that
	// window would find the files still present and resurrect the session;
	// the tombstone makes it miss instead (and makes a winner that already
	// loaded discard). The value is a refcount: a DELETE racing an evictor
	// that owns the entry hands the evictor a reference too, so the
	// tombstone outlives whichever of the two finishes its file removal
	// last (the eviction checkpoint's atomic rename can race RemoveAll and
	// leave files behind for the other party to clean up).
	deleting  map[string]int
	nextSweep time.Time // throttle: full-map TTL scans run at most once per sweepEvery
}

// sessionManager owns the server's session lifecycle: unguessable IDs, an
// idle TTL, and a global resident cap enforced by least-recently-used
// eviction. It is hash-sharded by session ID so lookups never contend
// across shards, and within a shard all persistence I/O (create snapshot,
// eviction checkpoint+fsync, rehydration load) runs *outside* the shard
// lock:
//
//   - Creation snapshots the new session before the entry is published —
//     the ID is fresh random, so nothing can contend on it.
//   - Eviction moves the entry to stateCheckpointing under the lock, then
//     checkpoints off-lock (the dump itself is taken under the DB's own
//     lock by persist.Store.Checkpoint). A request landing mid-checkpoint
//     gets the live session back and aborts the eviction; a DELETE landing
//     mid-checkpoint wins and the evictor discards.
//   - A cache miss registers a singleflight rehydration and loads from
//     disk off-lock; concurrent misses for the same ID coalesce onto the
//     winner's result instead of replaying the WAL N times.
//   - Checkpoints of sessions whose WAL is clean (read-only since the last
//     fold — the common case, sessions never mutate after creation) are
//     skipped entirely.
//
// The TTL bounds memory residency when persistence is on (evicted sessions
// checkpoint to disk and rehydrate on demand) and session lifetime when it
// is off. Expired entries are swept by whichever shard access trips the
// per-shard throttle, and by a background eviction loop so an idle daemon's
// memory shrinks without traffic.
type sessionManager struct {
	shards  []*sessionShard
	seed    maphash.Seed
	max     int          // global resident cap, enforced via live
	live    atomic.Int64 // resident entries across all shards
	ttl     time.Duration
	persist *persister // nil = memory-only

	nowFn      atomic.Pointer[func() time.Time] // test hook, read by every shard
	sweepEvery time.Duration

	stop   chan struct{}
	loopWG sync.WaitGroup
	finMu  sync.Mutex // serializes loopWG.Add for async finishers vs. shutdown's Wait
	closed atomic.Bool

	// Test seams, set before any traffic: called off-lock at the start of a
	// rehydration load / an eviction checkpoint / a DELETE's file removal
	// for the given id.
	hookRehydrate   func(id string)
	hookCheckpoint  func(id string)
	hookRemoveFiles func(id string)

	// traces, when non-nil, receives background-operation traces (eviction
	// checkpoints) and is the collector request spans threaded in via getCtx
	// belong to. logger, when non-nil, replaces slog.Default() for the
	// manager's diagnostics. Both are wired by the Server after construction;
	// tests building bare managers leave them nil.
	traces *obs.Collector
	logger *slog.Logger

	// onPersistError, when non-nil, receives every definitive durability
	// failure (creation snapshot, checkpoint after its retries) so the
	// owning Server can classify it — an ENOSPC flips the server into
	// read-only degraded mode. Wired by the Server after construction.
	onPersistError func(error)

	// keepID, when non-nil, filters freshly minted session IDs: add retries
	// until the predicate accepts one. It is how a cluster shard mints only
	// IDs it owns under the shard map's hash, so a created session's ID
	// routes back to the shard holding it. Wired by the Server after
	// construction, before any request runs.
	keepID func(string) bool
}

// log returns the manager's structured logger.
func (m *sessionManager) log() *slog.Logger {
	if m.logger != nil {
		return m.logger
	}
	return slog.Default()
}

func newSessionManager(max int, ttl time.Duration, shards int, p *persister) *sessionManager {
	if max < 1 {
		max = 1 // a non-positive cap would make the eviction loop spin
	}
	if shards < 1 {
		shards = runtime.GOMAXPROCS(0)
	}
	m := &sessionManager{
		shards:  make([]*sessionShard, shards),
		seed:    maphash.MakeSeed(),
		max:     max,
		ttl:     ttl,
		persist: p,
		stop:    make(chan struct{}),
	}
	m.setNow(time.Now)
	// Sweep scans a whole shard map, so throttle them well below the TTL
	// but often enough that expiry is prompt at human time scales.
	m.sweepEvery = ttl / 8
	if m.sweepEvery > 30*time.Second {
		m.sweepEvery = 30 * time.Second
	}
	for i := range m.shards {
		m.shards[i] = &sessionShard{
			m:        m,
			entries:  make(map[string]*sessionEntry),
			inflight: make(map[string]*rehydration),
			deleting: make(map[string]int),
		}
	}
	m.loopWG.Add(1)
	go m.evictionLoop()
	return m
}

// setNow installs the manager's clock (a test seam; production keeps
// time.Now). It is an atomic so the background eviction loop can read it
// while a test installs a fake.
func (m *sessionManager) setNow(fn func() time.Time) { m.nowFn.Store(&fn) }

func (m *sessionManager) now() time.Time { return (*m.nowFn.Load())() }

// shardFor maps an id onto its shard. maphash is seeded per manager, so
// shard placement is not attacker-predictable even though session IDs
// travel in URLs.
func (m *sessionManager) shardFor(id string) *sessionShard {
	return m.shards[m.shardIndexFor(id)]
}

// shardIndexFor exposes the shard number itself, for trace attribution.
func (m *sessionManager) shardIndexFor(id string) uint64 {
	return maphash.String(m.seed, id) % uint64(len(m.shards))
}

// noteResident adjusts the manager-local cap counter and the process-wide
// gauge together.
func (m *sessionManager) noteResident(delta int64) {
	m.live.Add(delta)
	metricSessionsLive.Add(delta)
}

// add registers sess under a fresh random ID and returns the ID. With
// persistence on, the session's database is snapshotted *before* the entry
// is published (no lock held — the ID is unguessable and unpublished, so
// nothing contends), so a crash immediately after the response can still
// serve it. If the insert pushes the store past the global cap, the least
// recently used session anywhere is evicted.
func (m *sessionManager) add(sess *core.Session, constraintSrcs []string) (string, error) {
	id, err := m.mintSessionID()
	if err != nil {
		return "", err
	}
	var store *persist.Store
	if m.persist != nil {
		store, err = m.persist.create(id, sess, constraintSrcs)
		if err != nil {
			return "", fmt.Errorf("server: persisting session: %w", err)
		}
	}
	m.makeRoom()
	sh := m.shardFor(id)
	now := m.now()
	sh.mu.Lock()
	sh.entries[id] = &sessionEntry{sess: sess, store: store, lastUsed: now, state: stateLive}
	victims := sh.maybeExpireLocked(now)
	sh.mu.Unlock()
	m.noteResident(1)
	m.asyncFinish(sh, victims)
	m.enforceCap()
	return id, nil
}

// mintSessionID generates session IDs until the keepID predicate accepts
// one (rejection sampling). With N cluster shards the acceptance rate is
// ~1/N per draw, so the bound is never hit in practice; reaching it means
// the predicate rejects everything (a shard map that doesn't contain this
// shard's name), which should fail loudly rather than loop forever.
func (m *sessionManager) mintSessionID() (string, error) {
	for attempt := 0; attempt < 4096; attempt++ {
		id, err := newSessionID()
		if err != nil {
			return "", err
		}
		if m.keepID == nil || m.keepID(id) {
			return id, nil
		}
	}
	return "", fmt.Errorf("server: could not mint an acceptable session id (is this shard in the cluster map?)")
}

// get returns the session for id and marks it used. A miss on the
// in-memory map falls through to disk when persistence is on: an evicted
// (or pre-restart) session is rehydrated from its snapshot + WAL instead
// of reporting 404, counting against the cap like any resident session.
func (m *sessionManager) get(id string) (*core.Session, bool) {
	return m.lookup(id, nil)
}

// getCtx is get with trace propagation: when ctx carries an active obs.Span,
// the lookup reports how it resolved — directly on the request's span for a
// trivial resident hit, or under a "session.get" child span for the paths
// that do real work (see lookup).
func (m *sessionManager) getCtx(ctx context.Context, id string) (*core.Session, bool) {
	return m.lookup(id, obs.FromContext(ctx))
}

// startGetSpan opens the "session.get" child under parent. Shard indexes are
// tiny, so Itoa hits strconv's small-int cache and the pre-publish attr
// costs neither an allocation nor a lock. Nil-safe (nil parent, nil span).
func startGetSpan(parent *obs.Span, shIdx uint64) *obs.Span {
	return parent.StartChildAttrs("session.get",
		obs.Attr{Key: "shard", Val: strconv.Itoa(int(shIdx))})
}

// coldGetSpan returns span, opening it now if the fast path hadn't: a
// lookup that leaves the fast path late (expiry, miss, delete race,
// coalesce, rehydrate) still gets its tree node.
func coldGetSpan(span, parent *obs.Span, shIdx uint64) *obs.Span {
	if span != nil {
		return span
	}
	return startGetSpan(parent, shIdx)
}

// endLookup finishes a "session.get" span with the lookup's resolution and
// the shard-lock wait. Nil-safe.
func endLookup(span *obs.Span, result string, lockWait time.Duration) {
	if span == nil {
		return
	}
	span.EndAttrs(obs.Attr{Key: "result", Val: result},
		obs.Attr{Key: "lock_wait_us", Val: strconv.FormatInt(lockWait.Microseconds(), 10)})
}

// lookup is the body of get/getCtx; parent (nil when untraced) is the
// request's active span. The fast path — an uncontended shard lock and a
// resident hit — annotates parent directly (session_result / session_shard
// attrs) instead of opening a child span: a trivial hit has no timing worth
// a tree node, and skipping the span keeps tracing's hot-path cost to two
// plain attr stores and zero clock reads. Every other resolution — lock
// contention, expiry, miss, delete race, singleflight coalesce, rehydrate —
// opens a "session.get" child covering the interesting work, so slow traces
// still show the session manager's role in the tree.
func (m *sessionManager) lookup(id string, parent *obs.Span) (*core.Session, bool) {
	shIdx := m.shardIndexFor(id)
	sh := m.shards[shIdx]
	now := m.now()
	var span *obs.Span
	var lockWait time.Duration
	if !sh.mu.TryLock() {
		// Contended: open the span before blocking so the wait is measured —
		// the span's own start is the baseline, so the wait costs one clock
		// read after the lock lands and nothing inside the critical section.
		span = startGetSpan(parent, shIdx)
		sh.mu.Lock()
		lockWait = span.SinceStart()
	}
	if e, ok := sh.entries[id]; ok && !e.deleted {
		// With persistence on, the TTL bounds residency, not lifetime, so an
		// expired-but-still-resident session is served directly instead of
		// being checkpointed to disk and immediately rehydrated
		// byte-identical. Memory-only keeps expired-means-gone semantics.
		if m.persist == nil && now.Sub(e.lastUsed) > m.ttl {
			// Drop the corpse only if no evictor has claimed it; a claimed
			// entry is the evictor's to delete and count (touching it here
			// would double-decrement the resident counter).
			if e.state == stateLive {
				delete(sh.entries, id)
				sh.mu.Unlock()
				m.noteResident(-1)
				metricEvictionsTTL.Add(1)
				endLookup(coldGetSpan(span, parent, shIdx), "expired", lockWait)
				return nil, false
			}
			sh.mu.Unlock()
			endLookup(coldGetSpan(span, parent, shIdx), "expired", lockWait)
			return nil, false
		}
		e.lastUsed = now
		if e.state == stateCheckpointing {
			// An evictor is mid-checkpoint on this very session. The live
			// object is still coherent (the checkpoint only reads a dump
			// taken under the DB's own lock), so serve it and make the
			// evictor abort instead of closing the store under us.
			e.touched = true
		}
		sess := e.sess
		victims := sh.maybeExpireLocked(now)
		sh.mu.Unlock()
		m.asyncFinish(sh, victims)
		if span != nil {
			endLookup(span, "hit", lockWait)
		} else if parent != nil {
			// Fast path: two plain attr stores on the request's span, no
			// child span, no clock read.
			parent.SetAttr("session_result", "hit")
			parent.SetAttrInt("session_shard", int64(shIdx))
		}
		return sess, true
	}
	victims := sh.maybeExpireLocked(now)
	if m.persist == nil {
		sh.mu.Unlock()
		m.asyncFinish(sh, victims)
		endLookup(coldGetSpan(span, parent, shIdx), "miss", lockWait)
		return nil, false
	}
	if sh.deleting[id] > 0 {
		// A DELETE is between forgetting the session and removing its
		// files; starting a load now could resurrect it. Delete wins.
		sh.mu.Unlock()
		m.asyncFinish(sh, victims)
		endLookup(coldGetSpan(span, parent, shIdx), "deleted", lockWait)
		return nil, false
	}
	// Cold miss: singleflight the disk load. Whoever installs the
	// rehydration first wins and performs the I/O; everyone else blocks on
	// the winner's result instead of reading the snapshot and replaying the
	// WAL once per caller.
	if r, ok := sh.inflight[id]; ok {
		sh.mu.Unlock()
		m.asyncFinish(sh, victims)
		metricRehydrationsCoalesced.Add(1)
		span = coldGetSpan(span, parent, shIdx)
		wait := span.StartChild("singleflight.wait")
		<-r.done
		wait.End()
		endLookup(span, "coalesced", lockWait)
		return r.sess, r.ok
	}
	r := &rehydration{done: make(chan struct{})}
	sh.inflight[id] = r
	sh.mu.Unlock()
	m.asyncFinish(sh, victims)
	return sh.rehydrate(id, r, coldGetSpan(span, parent, shIdx), lockWait)
}

// rehydrate performs the winner's side of a singleflight disk load: open
// the snapshot+WAL (no shard lock held), then publish the result — unless a
// DELETE raced the load, in which case delete wins: the files are removed
// and every waiter sees a miss. span (nil when untraced) receives a
// "session.rehydrate" child covering the disk load and is ended here.
func (sh *sessionShard) rehydrate(id string, r *rehydration, span *obs.Span, lockWait time.Duration) (*core.Session, bool) {
	m := sh.m
	if m.hookRehydrate != nil {
		m.hookRehydrate(id)
	}
	rs := span.StartChild("session.rehydrate")
	sess, store, err := m.persist.open(id)
	if err != nil && !errors.Is(err, errSessionNotOnDisk) {
		rs.SetAttr("error", err.Error())
	}
	rs.End()
	if err == nil {
		// Make room before publishing (as creation does). The inflight
		// record is still registered, so later misses keep coalescing and a
		// racing DELETE still finds something to flag; concurrent winners
		// can overshoot the cap only by the number of in-flight loads.
		m.makeRoom()
	}

	sh.mu.Lock()
	delete(sh.inflight, id)
	_, corpse := sh.entries[id] // a deleted entry an evictor still owns
	if r.deleted || corpse || sh.deleting[id] > 0 {
		sh.mu.Unlock()
		if err == nil {
			store.Close()
			m.persist.remove(id) // in case the open re-created anything
		}
		close(r.done)
		endLookup(span, "deleted", lockWait)
		return nil, false
	}
	if err != nil {
		sh.mu.Unlock()
		if !errors.Is(err, errSessionNotOnDisk) {
			m.log().Error("session rehydration failed", "session_id", id, "err", err)
		}
		close(r.done)
		endLookup(span, "miss", lockWait)
		return nil, false
	}
	sh.entries[id] = &sessionEntry{sess: sess, store: store, lastUsed: m.now(), state: stateLive}
	sh.mu.Unlock()
	m.noteResident(1)
	metricRehydrations.Add(1)
	r.sess, r.ok = sess, true
	close(r.done)
	m.enforceCap()
	endLookup(span, "rehydrate", lockWait)
	return sess, true
}

// remove deletes the session from memory AND disk (the DELETE endpoint's
// contract: after it, the capability is dead and no files remain). It
// reports whether anything existed to delete. Deletion wins every race: an
// entry mid-checkpoint is flagged for the evictor to discard, and an
// in-flight rehydration is flagged so the winner drops its load and every
// coalesced waiter sees a miss.
func (m *sessionManager) remove(id string) bool {
	sh := m.shardFor(id)
	existed := false
	flaggedEvictor := false
	var closeStore *persist.Store
	sh.mu.Lock()
	if e, ok := sh.entries[id]; ok && !e.deleted {
		switch {
		case m.persist == nil && m.now().Sub(e.lastUsed) > m.ttl:
			// Memory-only: an expired session is already gone; drop the
			// corpse but report a miss, like get would.
			delete(sh.entries, id)
		case e.state == stateCheckpointing:
			// An evictor owns the entry; flag it and let the evictor
			// finish by discarding. Resident bookkeeping stays with it,
			// and it inherits a tombstone reference (below) so the id
			// stays unrehydratable until its own file cleanup completes.
			e.deleted = true
			flaggedEvictor = true
			existed = true
		default:
			delete(sh.entries, id)
			closeStore = e.store
			existed = true
		}
		if e.state == stateLive {
			defer m.noteResident(-1)
		}
	}
	if r, ok := sh.inflight[id]; ok {
		r.deleted = true
		existed = true
	}
	if m.persist != nil {
		// Tombstone until the files are gone: a rehydration starting in
		// this window must miss, not reload the doomed files. One
		// reference for this DELETE's own removal; one more for the
		// evictor this call flagged (if any), whose checkpoint can race
		// our RemoveAll and leave files for its discard path to clean up
		// after us. Only the flipping DELETE grants that reference, so a
		// repeat DELETE cannot strand the tombstone.
		refs := 1
		if flaggedEvictor {
			refs++
		}
		sh.deleting[id] += refs
	}
	sh.mu.Unlock()
	if closeStore != nil {
		closeStore.Close() // no checkpoint: the files are about to go
	}
	if m.persist != nil {
		if m.hookRemoveFiles != nil {
			m.hookRemoveFiles(id)
		}
		if m.persist.remove(id) {
			existed = true
		}
		sh.dropTombstoneRef(id)
	}
	return existed
}

// dropTombstoneRef releases one delete-tombstone reference for id; the id
// becomes rehydratable again once the last holder (DELETE or a flagged
// evictor) has finished removing the files.
func (sh *sessionShard) dropTombstoneRef(id string) {
	sh.mu.Lock()
	if sh.deleting[id] > 1 {
		sh.deleting[id]--
	} else {
		delete(sh.deleting, id)
	}
	sh.mu.Unlock()
}

// count returns the number of memory-resident (possibly expired) sessions.
func (m *sessionManager) count() int {
	n := 0
	for _, sh := range m.shards {
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// shardSizes returns the resident-session count of every shard, in shard
// order (the jitd_shard_sessions gauge on /metrics).
func (m *sessionManager) shardSizes() []int {
	sizes := make([]int, len(m.shards))
	for i, sh := range m.shards {
		sh.mu.Lock()
		sizes[i] = len(sh.entries)
		sh.mu.Unlock()
	}
	return sizes
}

// shutdown stops the eviction loop, persists every resident session to disk
// and closes its store. jitd calls it after draining requests on SIGTERM,
// so a restart with the same data dir resumes every session where it left
// off. It returns the number of sessions made durable. The snapshot+fsync
// of each session runs outside the shard locks, so shards drain
// independently.
func (m *sessionManager) shutdown() int {
	m.stopBackgroundSweeps()
	n := 0
	for _, sh := range m.shards {
		sh.mu.Lock()
		victims := make([]*evictionVictim, 0, len(sh.entries))
		for id, e := range sh.entries {
			if e.state != stateLive || e.deleted {
				continue // owned by an in-flight evictor; it will finish
			}
			e.state = stateCheckpointing
			victims = append(victims, &evictionVictim{id: id, e: e})
		}
		sh.mu.Unlock()
		for _, v := range victims {
			// Same settle protocol as finishEviction: a DELETE racing the
			// drain (Close can run before srv.Shutdown finishes if the
			// drain times out) must win and drop its tombstone ref, and a
			// request that touched the entry keeps its store open — its
			// WAL is already flushed per-append, so recovery loses
			// nothing.
			sh.mu.Lock()
			if done := sh.settleClaimLocked(v.id, v.e); done {
				continue
			}
			store := v.e.store
			sh.mu.Unlock()
			var cpErr error
			if store != nil {
				cpErr = m.checkpointIfDirty(v.id, store)
			}
			sh.mu.Lock()
			if done := sh.settleClaimLocked(v.id, v.e); done {
				continue
			}
			delete(sh.entries, v.id)
			sh.mu.Unlock()
			if store != nil {
				if cpErr != nil {
					m.log().Error("shutdown checkpoint failed", "session_id", v.id, "err", cpErr)
				} else {
					n++
				}
				store.Close()
			}
			m.noteResident(-1)
		}
	}
	return n
}

// stopBackgroundSweeps halts the background eviction loop and waits for
// its in-flight sweep, idempotently. shutdown uses it; interleaving tests
// call it directly so that every eviction is owned by a test-driven
// goroutine (the loop would otherwise race them for eviction claims and
// read the test hooks concurrently).
func (m *sessionManager) stopBackgroundSweeps() {
	if m.closed.CompareAndSwap(false, true) {
		close(m.stop)
		// Barrier: any async finisher that saw closed == false has already
		// done its loopWG.Add under finMu, so the Wait below covers it;
		// finishers starting after this run inline instead.
		m.finMu.Lock()
		m.finMu.Unlock() //nolint:staticcheck // empty critical section is the barrier
		m.loopWG.Wait()
	}
}

// asyncFinish completes claimed TTL evictions off the request goroutine, so
// a lookup that happens to trip the sweep throttle never pays for other
// sessions' checkpoint I/O. During shutdown the work runs inline instead
// (the loopWG window is closed).
func (m *sessionManager) asyncFinish(sh *sessionShard, victims []*evictionVictim) {
	if len(victims) == 0 {
		return
	}
	m.finMu.Lock()
	if m.closed.Load() {
		m.finMu.Unlock()
		sh.finishEvictions(victims, metricEvictionsTTL)
		return
	}
	m.loopWG.Add(1)
	m.finMu.Unlock()
	go func() {
		defer m.loopWG.Done()
		sh.finishEvictions(victims, metricEvictionsTTL)
	}()
}

// evictionLoop is the shard-independent background sweeper: it wakes every
// sweepEvery and checkpoints-out expired sessions, so an idle daemon's
// memory shrinks with its live session count even when no request arrives
// to trip the per-shard sweep throttle.
func (m *sessionManager) evictionLoop() {
	defer m.loopWG.Done()
	every := m.sweepEvery
	if every < time.Second {
		every = time.Second // don't busy-spin on micro TTLs (tests)
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			m.sweepAll()
		}
	}
}

// sweepAll expires idle sessions across every shard, running each shard's
// checkpoint I/O outside its lock.
func (m *sessionManager) sweepAll() {
	now := m.now()
	for _, sh := range m.shards {
		sh.mu.Lock()
		victims := sh.expireLocked(now)
		sh.mu.Unlock()
		sh.finishEvictions(victims, metricEvictionsTTL)
	}
}

type evictionVictim struct {
	id string
	e  *sessionEntry
}

// maybeExpireLocked runs expireLocked at most once per sweepEvery — the
// per-access sweep is an opportunistic assist to the background loop, not a
// full scan on every request.
func (sh *sessionShard) maybeExpireLocked(now time.Time) []*evictionVictim {
	if now.Before(sh.nextSweep) {
		return nil
	}
	return sh.expireLocked(now)
}

// expireLocked claims every expired live entry for eviction (moving it to
// stateCheckpointing) and returns the claimed victims. The caller must
// finish them with finishEvictions after releasing the shard lock.
func (sh *sessionShard) expireLocked(now time.Time) []*evictionVictim {
	sh.nextSweep = now.Add(sh.m.sweepEvery)
	var victims []*evictionVictim
	for id, e := range sh.entries {
		if e.state == stateLive && !e.deleted && now.Sub(e.lastUsed) > sh.m.ttl {
			e.state = stateCheckpointing
			victims = append(victims, &evictionVictim{id: id, e: e})
		}
	}
	return victims
}

// finishEvictions completes claimed evictions with no shard lock held
// during I/O.
func (sh *sessionShard) finishEvictions(victims []*evictionVictim, cause *expvar.Int) {
	for _, v := range victims {
		sh.finishEviction(v.id, v.e, cause)
	}
}

// finishEviction is the second half of the eviction state machine, entered
// with e claimed (stateCheckpointing) by this goroutine. It checkpoints the
// session outside the shard lock, then commits the eviction — unless a
// request touched the entry meanwhile (abort: the session stays live) or a
// DELETE flagged it (discard: close and remove the files).
func (sh *sessionShard) finishEviction(id string, e *sessionEntry, cause *expvar.Int) {
	m := sh.m

	sh.mu.Lock()
	if done := sh.settleClaimLocked(id, e); done {
		return // settleClaimLocked unlocked for us
	}
	store := e.store
	sh.mu.Unlock()

	var cpErr error
	if store != nil {
		if m.hookCheckpoint != nil {
			m.hookCheckpoint(id)
		}
		cpErr = m.checkpointIfDirty(id, store)
	}

	sh.mu.Lock()
	if done := sh.settleClaimLocked(id, e); done {
		return
	}
	delete(sh.entries, id)
	sh.mu.Unlock()
	if cpErr != nil {
		// The on-disk pair still holds the last good checkpoint + WAL; a
		// later rehydration recovers that state. Log the gap and proceed.
		m.log().Error("eviction checkpoint failed", "session_id", id, "err", cpErr)
	}
	if store != nil {
		store.Close()
	}
	m.noteResident(-1)
	cause.Add(1)
}

// settleClaimLocked resolves an eviction claim against flags raced onto the
// entry. It returns true — having released the shard lock and settled the
// entry — when the eviction must not proceed: either a request resurrected
// the session (abort, back to stateLive) or a DELETE won (discard: close
// the store, drop the entry, remove the files). Returns false with the lock
// still held when the eviction should continue.
func (sh *sessionShard) settleClaimLocked(id string, e *sessionEntry) bool {
	if e.deleted {
		delete(sh.entries, id)
		sh.mu.Unlock()
		if e.store != nil {
			e.store.Close()
		}
		if sh.m.persist != nil {
			sh.m.persist.remove(id) // a checkpoint may have re-written files
			sh.dropTombstoneRef(id) // the reference remove() granted us
		}
		sh.m.noteResident(-1)
		return true
	}
	if e.touched {
		e.touched = false
		e.state = stateLive
		sh.mu.Unlock()
		return true
	}
	return false
}

// enforceCap evicts globally-least-recently-used sessions until the
// resident count is back under the cap. Victim selection scans shard
// minima (shard locks taken one at a time, never nested); the checkpoint
// I/O itself runs off-lock like every other eviction.
//
// The cap is enforced eventually, not as a hard pre-insert gate: a new
// entry is published first and the overflow evicted right after (plus
// makeRoom before publishing), so concurrent inserts can overshoot the cap
// briefly — bounded by the number of in-flight creations (createSem) and
// rehydrations. When every candidate victim is already claimed by another
// evictor the loop stops; those claims each release one slot as they
// commit.
func (m *sessionManager) enforceCap() {
	for m.live.Load() > int64(m.max) {
		if !m.evictGlobalLRU() {
			return // nothing evictable right now (claims in flight)
		}
	}
}

// makeRoom pre-evicts so an imminent insert lands at (or under) the cap,
// mirroring the old manager's evict-before-insert behavior.
func (m *sessionManager) makeRoom() {
	for m.live.Load() >= int64(m.max) {
		if !m.evictGlobalLRU() {
			return
		}
	}
}

func (m *sessionManager) evictGlobalLRU() bool {
	victimShard := -1
	var victimID string
	var victimTime time.Time
	for si, sh := range m.shards {
		sh.mu.Lock()
		for id, e := range sh.entries {
			if e.state != stateLive || e.deleted {
				continue
			}
			if victimShard == -1 || e.lastUsed.Before(victimTime) {
				victimShard, victimID, victimTime = si, id, e.lastUsed
			}
		}
		sh.mu.Unlock()
	}
	if victimShard == -1 {
		return false
	}
	sh := m.shards[victimShard]
	sh.mu.Lock()
	e, ok := sh.entries[victimID]
	if !ok || e.state != stateLive || e.deleted {
		sh.mu.Unlock()
		return true // raced away; the caller re-checks the cap and retries
	}
	e.state = stateCheckpointing
	sh.mu.Unlock()
	sh.finishEviction(victimID, e, metricEvictionsLRU)
	return true
}

// checkpointIfDirty folds a session's WAL into a fresh snapshot, counting
// it — unless the WAL is clean, in which case the snapshot on disk already
// equals the live state and the write+fsync is skipped. A transient failure
// (a flaky device, a momentarily full disk) is retried under a capped
// jittered backoff before the error is declared definitive — the checkpoint
// protocol is idempotent (tmp + fsync + atomic rename), so a half-written
// attempt leaves nothing a retry can trip over. Corruption is not retried:
// rewriting the same bytes cannot fix a failing checksum.
func (m *sessionManager) checkpointIfDirty(id string, st *persist.Store) error {
	if !st.Dirty() {
		return nil
	}
	retry := fault.Backoff{Base: 50 * time.Millisecond, Max: time.Second}
	var err error
	for attempt := 0; attempt < 4; attempt++ {
		if attempt > 0 {
			metricCheckpointRetries.Add(1)
			m.log().Warn("checkpoint failed; retrying",
				"session_id", id, "attempt", attempt, "err", err)
			time.Sleep(retry.Next())
		}
		if err = m.checkpointOnce(id, st); err == nil {
			return nil
		}
		if persist.IsCorrupt(err) {
			break
		}
	}
	if m.onPersistError != nil {
		m.onPersistError(err)
	}
	return err
}

// checkpointOnce is one checkpoint attempt under a background trace (method
// "bg", route "session.checkpoint"), so eviction and shutdown I/O shows up
// in /debug/requests with the same span detail as request work.
func (m *sessionManager) checkpointOnce(id string, st *persist.Store) error {
	ctx := context.Background()
	var t *obs.Trace
	if m.traces != nil {
		t = m.traces.StartRequest("bg", "session.checkpoint")
		t.Root.SetAttr("session_id", id)
		ctx = obs.With(ctx, t.Root)
	}
	err := st.CheckpointCtx(ctx)
	if t != nil {
		status := 0
		if err != nil {
			status = 500
		}
		m.traces.Finish(t, status)
	}
	if err != nil {
		return err
	}
	metricCheckpoints.Add(1)
	if m.persist != nil {
		// The file set changed shape (new snapshot epoch, reset WAL, fresh
		// page files): ship the whole set to the standby.
		m.persist.noteSync(id)
	}
	return nil
}
