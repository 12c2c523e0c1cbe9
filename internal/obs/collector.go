package obs

import (
	"encoding/hex"
	"math/rand/v2"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Trace is one request's (or one background operation's) span tree plus the
// request-level envelope the access log and the debug endpoints render.
//
// Traces recycle: Finish snapshots kept traces into the collector's rings
// and returns the Trace (and its span slab) to a pool. Callers must not
// touch the Trace or any of its spans after Finish.
type Trace struct {
	Method string
	Route  string
	Start  time.Time
	Root   *Span

	// Set by Finish.
	Duration time.Duration
	Status   int

	id      string // lazily materialized; see ID()
	c       *Collector
	nspan   atomic.Int32
	spans   [slabSpans]Span
	extraMu sync.Mutex
	extra   []*Span // slab-overflow spans, indexed from slabSpans
}

// alloc carves the next span from the trace's slab, falling back to a heap
// span once the slab is exhausted (deep or hostile trees only). Slab slots
// are recycled across requests, so the slot is field-reset here rather than
// bulk-cleared at release time; tr and idx are written only on a slot's
// first-ever use (pointer stores into the long-lived slab cost a GC write
// barrier, so stable fields are never rewritten).
func (t *Trace) alloc() *Span {
	if t == nil {
		return &Span{}
	}
	idx := int(t.nspan.Add(1)) - 1
	if idx < len(t.spans) {
		s := &t.spans[idx]
		s.reset()
		if s.tr == nil {
			s.tr = t
			s.idx = int32(idx)
		}
		return s
	}
	s := &Span{tr: t}
	t.extraMu.Lock()
	s.idx = int32(len(t.spans) + len(t.extra))
	t.extra = append(t.extra, s)
	t.extraMu.Unlock()
	return s
}

// spanAt resolves a span index from alloc: slab slots first, then overflow.
func (t *Trace) spanAt(i int32) *Span {
	if int(i) < len(t.spans) {
		return &t.spans[i]
	}
	t.extraMu.Lock()
	s := t.extra[int(i)-len(t.spans)]
	t.extraMu.Unlock()
	return s
}

// ID returns the trace's request ID, materializing it on first use — the
// common dropped-fast-trace path never formats one. Nil-safe.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	t.Root.mu.Lock()
	if t.id == "" {
		t.id = t.c.nextID()
	}
	id := t.id
	t.Root.mu.Unlock()
	return id
}

// TraceSnapshot is the marshal-safe copy of a finished trace.
type TraceSnapshot struct {
	ID         string       `json:"id"`
	Method     string       `json:"method"`
	Route      string       `json:"route"`
	Start      time.Time    `json:"start"`
	DurationUS int64        `json:"dur_us"`
	Status     int          `json:"status"`
	Root       SpanSnapshot `json:"spans"`
}

// Snapshot copies the trace for rendering.
func (t *Trace) Snapshot() TraceSnapshot {
	return TraceSnapshot{
		ID:         t.ID(),
		Method:     t.Method,
		Route:      t.Route,
		Start:      t.Start,
		DurationUS: t.Duration.Microseconds(),
		Status:     t.Status,
		Root:       t.Root.Snapshot(),
	}
}

// Collector owns the process's finished traces: a ring of recent sampled
// traces and a ring of slow ones. Recording is cheap — the tail-sampling
// decision is an atomic counter, kept traces land in a ring as-is (they are
// rendered only when scraped), and dropped or displaced traces recycle
// straight back to the pool.
//
// Tail sampling: the keep/drop decision happens at completion, when the
// duration is known. Every trace at or over the slow threshold is kept in
// the slow ring unconditionally; faster traces go to the recent ring at a
// 1-in-SampleEvery rate (0 keeps none). Collection itself runs for every
// request — that is what makes "keep every slow request" possible — so the
// per-span cost is bounded and allocation-light by design.
type Collector struct {
	slow        time.Duration
	sampleEvery uint64

	seq    atomic.Uint64 // finished fast traces; doubles as the sampling counter
	idSeq  atomic.Uint64 // request-id sequence
	prefix string        // random per-process request-id prefix
	epoch  atomic.Pointer[time.Time]

	pool sync.Pool // recycled *Trace

	kept      atomic.Uint64 // fast traces kept in the recent ring
	keptSlow  atomic.Uint64 // slow traces kept in the slow ring
	mu        sync.Mutex
	recent    []*Trace // ring; nil slots until warm
	recentPos int
	slowRing  []*Trace
	slowPos   int
}

// NewCollector builds a collector keeping every trace at or over slow
// (<= 0 keeps everything: every request counts as slow), sampling 1 in
// sampleEvery faster traces (0 samples none), with ringCap slots per ring
// (minimum 16).
func NewCollector(slow time.Duration, sampleEvery, ringCap int) *Collector {
	if ringCap < 16 {
		ringCap = 16
	}
	if sampleEvery < 0 {
		sampleEvery = 0
	}
	var pfx [4]byte
	r := rand.Uint32()
	pfx[0], pfx[1], pfx[2], pfx[3] = byte(r>>24), byte(r>>16), byte(r>>8), byte(r)
	c := &Collector{
		slow:        slow,
		sampleEvery: uint64(sampleEvery),
		prefix:      hex.EncodeToString(pfx[:]),
		recent:      make([]*Trace, ringCap),
		slowRing:    make([]*Trace, ringCap),
	}
	now := time.Now()
	c.epoch.Store(&now)
	return c
}

// anchorRefresh bounds how far trace start times are extrapolated from the
// cached wall-clock anchor before it is re-read.
const anchorRefresh = time.Minute

// now returns the current time at full precision while reading the wall
// clock only rarely: the monotonic clock (time.Since, one cheap read)
// extrapolates from a cached anchor, and the anchor itself is re-read once
// per anchorRefresh so NTP steps can't accumulate into the rendered
// timestamps. The returned value carries a monotonic reading, which is what
// every span offset in the trace is measured against.
func (c *Collector) now() time.Time {
	e := c.epoch.Load()
	d := time.Since(*e)
	if d < anchorRefresh {
		return e.Add(d)
	}
	fresh := time.Now()
	c.epoch.Store(&fresh)
	return fresh
}

// SlowThreshold returns the collector's slow-request threshold.
func (c *Collector) SlowThreshold() time.Duration {
	if c == nil {
		return 0
	}
	return c.slow
}

// nextID formats a fresh request ID: r-<process prefix>-<sequence>.
func (c *Collector) nextID() string {
	var buf [24]byte
	b := append(buf[:0], 'r', '-')
	b = append(b, c.prefix...)
	b = append(b, '-')
	b = strconv.AppendUint(b, c.idSeq.Add(1), 16)
	return string(b)
}

// StartRequest opens a trace with a root span named after the route.
// Nil-safe: a nil collector returns nil, and a nil *Trace is safe to Finish
// and has a nil Root.
func (c *Collector) StartRequest(method, route string) *Trace {
	if c == nil {
		return nil
	}
	t, _ := c.pool.Get().(*Trace)
	if t == nil {
		t = &Trace{}
	}
	t.c = c
	t.Method = method
	t.Route = route
	t.Start = c.now() // keeps the monotonic reading all spans offset from
	root := t.alloc()
	root.name = route
	t.Root = root
	return t
}

// Finish stamps the trace's duration and status, ends the root span, and
// applies the tail-sampling decision. Kept traces move into a ring (they
// are snapshotted lazily, at scrape time); dropped traces recycle straight
// back to the pool. Either way the caller must not use t — or any span from
// it — afterwards. Nil-safe.
func (c *Collector) Finish(t *Trace, status int) {
	if c == nil || t == nil {
		return
	}
	t.Duration = t.Root.End()
	t.Status = status
	if t.Duration >= c.slow {
		c.keptSlow.Add(1)
		c.keep(&c.slowRing, &c.slowPos, t)
		return
	}
	// One shared atomic on the fast-drop path: seq counts every finished
	// fast trace and doubles as the 1-in-N sampling counter.
	if n := c.seq.Add(1); c.sampleEvery != 0 && n%c.sampleEvery == 0 {
		c.kept.Add(1)
		c.keep(&c.recent, &c.recentPos, t)
		return
	}
	c.release(t)
}

// keep stores t in a ring, recycling the trace it displaces. Scrapes
// snapshot under c.mu (see ring), so once the slot is overwritten no reader
// can hold the displaced trace and it is safe to release.
func (c *Collector) keep(buf *[]*Trace, pos *int, t *Trace) {
	c.mu.Lock()
	old := (*buf)[*pos]
	(*buf)[*pos] = t
	*pos = (*pos + 1) % len(*buf)
	c.mu.Unlock()
	if old != nil {
		c.release(old)
	}
}

// release resets the trace envelope and returns it to the pool. Span slab
// slots are field-reset on reuse (Trace.alloc), and heap-allocated overflow
// spans just fall to the GC. Kept traces are never released — the rings own
// them until overwritten.
func (c *Collector) release(t *Trace) {
	t.id, t.Method, t.Route = "", "", ""
	t.Start = time.Time{}
	t.Duration, t.Status = 0, 0
	t.Root = nil
	t.extra = nil
	t.nspan.Store(0)
	c.pool.Put(t)
}

// ring snapshots one ring newest-first. It runs with c.mu held: holding the
// lock across the snapshots is what lets Finish recycle a displaced trace
// the moment its slot is overwritten (no reader can still reference it).
// Scrapes are rare and rings are small, so the critical section is fine.
func ring(buf []*Trace, pos int) []TraceSnapshot {
	out := make([]TraceSnapshot, 0, len(buf))
	for i := 0; i < len(buf); i++ {
		t := buf[(pos-1-i+2*len(buf))%len(buf)]
		if t == nil {
			break
		}
		out = append(out, t.Snapshot())
	}
	return out
}

// Recent returns the sampled fast traces, newest first.
func (c *Collector) Recent() []TraceSnapshot {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return ring(c.recent, c.recentPos)
}

// Slow returns the slow traces (the slow-query log), newest first.
func (c *Collector) Slow() []TraceSnapshot {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return ring(c.slowRing, c.slowPos)
}

// Stats reports collector totals since construction. finished is derived:
// every finished trace bumped exactly one of seq (fast) or keptSlow (slow).
func (c *Collector) Stats() (finished, kept, keptSlow uint64) {
	if c == nil {
		return 0, 0, 0
	}
	slow := c.keptSlow.Load()
	return c.seq.Load() + slow, c.kept.Load(), slow
}
