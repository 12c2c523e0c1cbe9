package persist

import (
	"bufio"
	"fmt"
	"log/slog"
	"maps"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"justintime/internal/fault"
)

// Shipper queue bounds. Overflowing either drops the connection and
// re-handshakes (the diff re-ships whatever the dropped events carried) —
// bounded memory beats an unbounded backlog to a slow standby.
const (
	shipMaxQueueEvents = 8192
	shipMaxQueueBytes  = 64 << 20
)

type shipKind uint8

const (
	shipSync shipKind = iota + 1 // ship the session's full file set (read at send time)
	shipAppend
	shipDelete
)

type shipEvent struct {
	kind  shipKind
	id    string
	epoch uint64
	off   int64
	data  []byte
}

// ShipperStats is a point-in-time snapshot of a shipper's counters. Lag
// compares each session's cursor on the primary with the standby's last
// acknowledged cursor: LagSessions counts the sessions where they differ
// (deleted-but-still-on-the-standby included), LagBytes sums the WAL bytes
// still to ship. Both read 0 exactly when the standby is current.
type ShipperStats struct {
	Connected      bool  `json:"connected"`
	LagSessions    int64 `json:"lag_sessions"`
	LagBytes       int64 `json:"lag_bytes"`
	ShippedRecords int64 `json:"shipped_records"`
	ShippedBytes   int64 `json:"shipped_bytes"`
	Syncs          int64 `json:"syncs"`
	Deletes        int64 `json:"deletes"`
	Resyncs        int64 `json:"resyncs"`
	Reconnects     int64 `json:"reconnects"`
	Overflows      int64 `json:"overflows"`
}

// Shipper streams a primary's session tree to a warm standby. Hook events
// (NoteAppend / NoteSync / NoteDelete) enqueue; a background loop dials the
// standby, diffs the standby's reported cursors against local disk, ships
// the delta, then drains the queue. Lag is the difference between two
// cursor maps: head (the primary's sessions, moved by the hooks) and acked
// (the standby's sessions, reported by the handshake and by every ack). All
// failure handling converges on one move: drop the connection and
// re-handshake.
type Shipper struct {
	root   string // sessions tree root
	target string // standby replication listener host:port
	logger *slog.Logger

	dialTimeout time.Duration
	// retry paces reconnects: jittered capped-exponential backoff that
	// resets once a handshake completes, so a flapping link is probed
	// gently while a brief blip reconnects fast.
	retry fault.Backoff
	dial  DialFunc

	// Queue bounds (settable in tests); overflow drops the connection and
	// re-handshakes.
	maxQueueEvents int
	maxQueueBytes  int64

	mu          sync.Mutex
	cond        *sync.Cond
	queue       []shipEvent
	queuedBytes int64
	accepting   bool // hook events enqueue only while a connection is being fed
	overflowed  bool
	closed      bool
	head        map[string]cursor // primary's cursors; each moves only forward
	acked       map[string]cursor // standby's cursors as last reported

	connected atomic.Bool
	shippedR  atomic.Int64
	shippedB  atomic.Int64
	syncs     atomic.Int64
	deletes   atomic.Int64
	resyncs   atomic.Int64
	redials   atomic.Int64
	overflows atomic.Int64

	wg sync.WaitGroup
}

// NewShipper creates a shipper for the session tree at root targeting a
// standby's replication listener, and starts its connection loop.
func NewShipper(root, target string, logger *slog.Logger) *Shipper {
	return NewShipperDialer(root, target, logger, nil)
}

// DialFunc is the shape of net.DialTimeout — the shipper's injectable
// connection seam (fault.DialTimeout produces one wrapping faulty conns).
type DialFunc = func(network, addr string, timeout time.Duration) (net.Conn, error)

// NewShipperDialer is NewShipper with an injectable dialer (nil = plain
// net.DialTimeout) — the hook the network fault plane wraps to exercise the
// replication link under latency, partial writes and mid-stream resets.
func NewShipperDialer(root, target string, logger *slog.Logger, dial DialFunc) *Shipper {
	if logger == nil {
		logger = slog.Default()
	}
	if dial == nil {
		dial = net.DialTimeout
	}
	head, err := scanSessions(root)
	if err != nil {
		logger.Error("shipper: scan sessions", "err", err)
		head = make(map[string]cursor)
	}
	s := &Shipper{
		root:           root,
		target:         target,
		logger:         logger,
		dialTimeout:    3 * time.Second,
		retry:          fault.Backoff{Base: 250 * time.Millisecond, Max: 10 * time.Second},
		dial:           dial,
		maxQueueEvents: shipMaxQueueEvents,
		maxQueueBytes:  shipMaxQueueBytes,
		head:           head,
	}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.run()
	}()
	return s
}

// Target returns the standby address the shipper feeds.
func (s *Shipper) Target() string { return s.target }

// Stats returns the shipper's counters and current lag.
func (s *Shipper) Stats() ShipperStats {
	s.mu.Lock()
	lagS, lagB := s.lagLocked()
	s.mu.Unlock()
	return ShipperStats{
		Connected:      s.connected.Load(),
		LagSessions:    lagS,
		LagBytes:       lagB,
		ShippedRecords: s.shippedR.Load(),
		ShippedBytes:   s.shippedB.Load(),
		Syncs:          s.syncs.Load(),
		Deletes:        s.deletes.Load(),
		Resyncs:        s.resyncs.Load(),
		Reconnects:     s.redials.Load(),
		Overflows:      s.overflows.Load(),
	}
}

// lagLocked compares head with acked. A session behind on the same epoch
// lags by the missing WAL bytes; one absent from the standby, at another
// epoch, or (after a primary-side truncation) ahead, lags by its whole WAL;
// one the standby holds but the primary deleted lags by 0 bytes.
func (s *Shipper) lagLocked() (sessions, bytes int64) {
	for id, h := range s.head {
		if a := s.acked[id]; a != h {
			sessions++
			if a.epoch == h.epoch && a.size < h.size {
				bytes += h.size - a.size
			} else {
				bytes += h.size
			}
		}
	}
	for id := range s.acked {
		if _, ok := s.head[id]; !ok {
			sessions++
		}
	}
	return sessions, bytes
}

// OnAppend returns the per-session Options.OnAppend hook for session id.
// It runs under the WAL's lock, so it only moves the cursor and copies the
// event into the queue.
func (s *Shipper) OnAppend(id string) func(epoch uint64, off int64, frame []byte) {
	return func(epoch uint64, off int64, frame []byte) {
		s.enqueue(shipEvent{kind: shipAppend, id: id, epoch: epoch, off: off, data: frame},
			cursor{epoch: epoch, size: off + int64(len(frame))})
	}
}

// NoteSync asks the shipper to ship session id's full file set (call after
// create and after checkpoints — the moments the file set changes shape).
func (s *Shipper) NoteSync(id string) {
	s.enqueue(shipEvent{kind: shipSync, id: id}, sessionCursor(filepath.Join(s.root, id)))
}

// NoteDelete asks the shipper to remove session id from the standby.
func (s *Shipper) NoteDelete(id string) {
	s.enqueue(shipEvent{kind: shipDelete, id: id}, cursor{})
}

// Close stops the shipper after waiting up to drain for a connected standby
// to catch up (zero lag); with no live feed it does not wait. Returns true if
// the standby caught up.
func (s *Shipper) Close(drain time.Duration) bool {
	deadline := time.Now().Add(drain)
	drained := false
	for time.Now().Before(deadline) && s.connected.Load() {
		if st := s.Stats(); st.LagSessions == 0 {
			drained = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	return drained
}

// enqueue first moves the event's session cursor on the primary: out of
// head on a delete, otherwise forward to c (the zero cursor moves nothing).
// It then queues the event while a connection is live; outside that window
// the handshake diff owns catch-up, so the event is dropped. Overflow trips
// the connection instead of growing without bound.
func (s *Shipper) enqueue(ev shipEvent, c cursor) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ev.kind == shipDelete {
		delete(s.head, ev.id)
	} else if s.head[ev.id].less(c) {
		s.head[ev.id] = c
	}
	if !s.accepting || s.closed || s.overflowed {
		return
	}
	if len(s.queue) >= s.maxQueueEvents || s.queuedBytes+int64(len(ev.data)) > s.maxQueueBytes {
		s.overflowed = true
		s.overflows.Add(1)
		s.cond.Broadcast()
		return
	}
	s.queue = append(s.queue, ev)
	s.queuedBytes += int64(len(ev.data))
	s.cond.Broadcast()
}

// run is the connection loop: dial, handshake-diff, stream, repeat.
func (s *Shipper) run() {
	first := true
	for {
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return
		}
		if !first {
			s.sleepBackoff()
		}
		first = false
		conn, err := s.dial("tcp", s.target, s.dialTimeout)
		if err != nil {
			continue
		}
		s.redials.Add(1)
		s.feed(conn)
		conn.Close()
		s.connected.Store(false)
		s.mu.Lock()
		s.accepting = false
		s.queue = nil
		s.queuedBytes = 0
		s.overflowed = false
		s.mu.Unlock()
	}
}

func (s *Shipper) sleepBackoff() {
	deadline := time.Now().Add(s.retry.Next())
	for time.Now().Before(deadline) {
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// feed drives one connection end to end: read the standby's cursors, open
// the queue (so no event between now and the local scan is lost — anything
// already on disk is covered by the diff, anything later by the queue, and
// the overlap deduplicates at the standby), ship the diff, then stream.
func (s *Shipper) feed(conn net.Conn) {
	br := bufio.NewReaderSize(conn, 1<<16)
	payload, err := readFrame(br)
	if err != nil {
		return
	}
	standby, err := decodeState(payload)
	if err != nil {
		s.logger.Error("shipper: bad handshake", "err", err)
		return
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.accepting = true
	s.acked = maps.Clone(standby)
	s.mu.Unlock()
	s.connected.Store(true)
	s.retry.Reset() // the link works; future redials start from the base delay
	s.logger.Info("shipper: connected", "target", s.target, "standby_sessions", len(standby))

	// Reply reader: moves the standby cursors on acks, turns resync
	// requests into queued sync events, and on connection death or a bad
	// frame drops the connection and wakes the sender.
	done := make(chan struct{})
	var readerErr atomic.Bool
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer close(done)
		for {
			payload, err := readFrame(br)
			if err == nil {
				if err = s.handleReply(payload); err != nil {
					s.logger.Error("shipper: bad standby frame", "err", err)
				}
			}
			if err != nil {
				readerErr.Store(true)
				conn.Close()
				s.mu.Lock()
				s.cond.Broadcast()
				s.mu.Unlock()
				return
			}
		}
	}()

	if err := s.shipDiff(conn, standby); err != nil {
		s.logger.Info("shipper: diff ship failed", "err", err)
		conn.Close()
		<-done
		return
	}

	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed && !s.overflowed && !readerErr.Load() {
			s.cond.Wait()
		}
		if s.closed || s.overflowed || readerErr.Load() {
			s.mu.Unlock()
			break
		}
		ev := s.queue[0]
		s.queue = s.queue[1:]
		s.queuedBytes -= int64(len(ev.data))
		s.mu.Unlock()
		if err := s.shipEvent(conn, ev); err != nil {
			s.logger.Info("shipper: send failed", "err", err)
			break
		}
	}
	conn.Close()
	<-done
}

// handleReply applies one standby frame: an ack sets the session's standby
// cursor (or clears it when the standby no longer holds the session), a
// resync request queues a full sync. An undecodable frame is an error.
func (s *Shipper) handleReply(payload []byte) error {
	d := &dec{buf: payload}
	typ := d.u8()
	id := d.str()
	switch typ {
	case repAckT:
		c := cursor{epoch: d.u64(), size: int64(d.u64())}
		if d.err != nil {
			return d.err
		}
		s.mu.Lock()
		if c == (cursor{}) {
			delete(s.acked, id)
		} else {
			s.acked[id] = c
		}
		s.mu.Unlock()
	case repResyncT:
		if d.err != nil {
			return d.err
		}
		s.resyncs.Add(1)
		s.enqueue(shipEvent{kind: shipSync, id: id}, cursor{})
	default:
		return fmt.Errorf("persist: unknown standby frame type %d", typ)
	}
	return nil
}

// shipDiff reconciles the standby against local disk: sessions it lacks or
// holds at another epoch get a full sync, sessions behind on the same epoch
// get the missing WAL byte range, sessions it holds that no longer exist
// locally get a delete.
func (s *Shipper) shipDiff(conn net.Conn, standby map[string]cursor) error {
	local, err := scanSessions(s.root)
	if err != nil {
		return err
	}
	for id, c := range local {
		if c == (cursor{}) {
			continue // mid-create; its NoteSync will queue behind us
		}
		sb, have := standby[id]
		switch {
		case !have || sb.epoch != c.epoch || sb.size > c.size:
			if err := s.sendSync(conn, id); err != nil {
				return err
			}
		case sb.size < c.size:
			delta := make([]byte, c.size-sb.size)
			f, err := os.Open(filepath.Join(s.root, id, WALFile))
			if err != nil {
				return err
			}
			_, rerr := f.ReadAt(delta, sb.size)
			f.Close()
			if rerr != nil {
				return rerr
			}
			if err := s.sendAppend(conn, id, c.epoch, sb.size, delta); err != nil {
				return err
			}
		}
	}
	for id := range standby {
		if _, ok := local[id]; !ok {
			if err := s.sendDelete(conn, id); err != nil {
				return err
			}
		}
	}
	return nil
}

// shipEvent sends one queued event.
func (s *Shipper) shipEvent(conn net.Conn, ev shipEvent) error {
	switch ev.kind {
	case shipSync:
		return s.sendSync(conn, ev.id)
	case shipAppend:
		return s.sendAppend(conn, ev.id, ev.epoch, ev.off, ev.data)
	case shipDelete:
		return s.sendDelete(conn, ev.id)
	}
	return fmt.Errorf("persist: unknown ship event kind %d", ev.kind)
}

func (s *Shipper) sendSync(conn net.Conn, id string) error {
	files, err := readSessionFiles(filepath.Join(s.root, id))
	if err != nil {
		// The session vanished or won't settle; a later event (delete or the
		// standby's next resync) resolves it. Not a connection error.
		s.logger.Info("shipper: sync skipped", "session", id, "err", err)
		return nil
	}
	n := int64(syncBytes(files))
	if _, err := writeFrame(conn, encodeSync(id, files)); err != nil {
		return err
	}
	s.syncs.Add(1)
	s.shippedR.Add(1)
	s.shippedB.Add(n)
	return nil
}

func (s *Shipper) sendAppend(conn net.Conn, id string, epoch uint64, off int64, data []byte) error {
	if _, err := writeFrame(conn, encodeAppend(id, epoch, off, data)); err != nil {
		return err
	}
	s.shippedR.Add(1)
	s.shippedB.Add(int64(len(data)))
	return nil
}

func (s *Shipper) sendDelete(conn net.Conn, id string) error {
	if _, err := writeFrame(conn, encodeDelete(id)); err != nil {
		return err
	}
	s.deletes.Add(1)
	s.shippedR.Add(1)
	return nil
}

// decodeState parses the standby's handshake frame.
func decodeState(payload []byte) (map[string]cursor, error) {
	d := &dec{buf: payload}
	if typ := d.u8(); typ != repStateT {
		return nil, fmt.Errorf("persist: expected state frame, got type %d", typ)
	}
	n := int(d.u32())
	if d.err != nil || n > 1<<20 {
		return nil, fmt.Errorf("persist: malformed state frame")
	}
	out := make(map[string]cursor, n)
	for i := 0; i < n && d.err == nil; i++ {
		id := d.str()
		epoch := d.u64()
		size := int64(d.u64())
		out[id] = cursor{epoch: epoch, size: size}
	}
	if d.err != nil {
		return nil, d.err
	}
	return out, nil
}
