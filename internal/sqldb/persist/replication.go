// WAL shipping: physical replication of a tree of session stores to a warm
// standby. The unit of replication is the session directory (snapshot + WAL
// + sidecar files); the unit of streaming is the WAL record, shipped as the
// exact framed bytes the primary wrote, addressed by (checkpoint epoch, file
// offset). That addressing makes apply idempotent — a duplicate lands at an
// offset the standby already has and is ignored — and self-healing: any
// cursor mismatch (gap, unknown session, epoch skew) makes the standby
// request a resync, which ships the session's whole file set.
//
// Wire protocol: one TCP connection, primary dials the standby. On accept
// the standby reports its per-session (epoch, WAL size) cursors; the primary
// diffs that against local disk and ships whatever closes the gap; from then
// on the stream carries live hook events. The standby acknowledges every
// frame after fsync with the session's resulting cursor; the primary's lag is
// the difference between its own cursors and the acknowledged ones.
package persist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"

	"justintime/internal/fault"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
)

// Replication frame types (first byte of the framed payload).
const (
	// primary -> standby
	repSyncT   uint8 = 1 // full file set for one session
	repAppendT uint8 = 2 // WAL bytes at (epoch, offset) for one session
	repDeleteT uint8 = 3 // session removed
	// standby -> primary
	repStateT  uint8 = 16 // handshake: per-session cursors
	repAckT    uint8 = 17 // a session's cursor (or absence) after a durable apply
	repResyncT uint8 = 18 // session cursor mismatch: please ship a full sync
)

// repFile is one file of a session sync: base name + contents.
type repFile struct {
	name string
	data []byte
}

// cursor is a position in one session: the checkpoint epoch of its
// snapshot/WAL pair and the record-aligned WAL length. Cursors order
// lexicographically by (epoch, size). Epochs start at 1, so the zero cursor
// is free to mean "no coherent copy".
type cursor struct {
	epoch uint64
	size  int64
}

func (c cursor) less(o cursor) bool {
	return c.epoch < o.epoch || c.epoch == o.epoch && c.size < o.size
}

// replIDPattern vets session IDs and file names arriving off the wire before
// they become path components. No separators, no leading dot: a hostile or
// corrupt peer cannot escape the replica root.
var replIDPattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,128}$`)

func replSafeName(s string) bool {
	return replIDPattern.MatchString(s) && !strings.Contains(s, "..")
}

// ---- session directory state --------------------------------------------

// readSnapshotEpoch reads just the header of a snapshot file: magic +
// checkpoint epoch.
func readSnapshotEpoch(path string) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	hdr := make([]byte, len(snapshotMagic)+8)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return 0, fmt.Errorf("persist: snapshot header: %w", err)
	}
	for i := range snapshotMagic {
		if hdr[i] != snapshotMagic[i] {
			return 0, fmt.Errorf("persist: not a snapshot file (bad magic)")
		}
	}
	return binary.LittleEndian.Uint64(hdr[len(snapshotMagic):]), nil
}

// scanWAL walks the record frames of the WAL at path without applying them,
// returning the header epoch and the offset just past the last intact record.
// A missing header reports ok=false.
func scanWAL(path string) (epoch uint64, good int64, ok bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, false, err
	}
	defer f.Close()
	r := fileReader(f, 1<<20)
	hdr := make([]byte, walHeaderLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, 0, false, nil // empty or torn before the header
	}
	for i := range walMagic {
		if hdr[i] != walMagic[i] {
			return 0, 0, false, fmt.Errorf("persist: not a WAL file (bad magic)")
		}
	}
	epoch = binary.LittleEndian.Uint64(hdr[len(walMagic):])
	good = walHeaderLen
	for {
		payload, ferr := readFrame(r)
		if ferr != nil {
			return epoch, good, true, nil // io.EOF clean end; errTorn crash tail
		}
		good += int64(8 + len(payload))
	}
}

// sessionCursor derives the replication cursor of a session directory: the
// snapshot's epoch and the length of the coherent same-epoch WAL prefix.
// The zero cursor means the directory is not in a shippable/reportable
// state (mid-create, mid-checkpoint, or damaged) — the peer treats it as
// absent.
func sessionCursor(dir string) cursor {
	snapEpoch, err := readSnapshotEpoch(filepath.Join(dir, SnapshotFile))
	if err != nil {
		return cursor{}
	}
	walEpoch, good, walOK, err := scanWAL(filepath.Join(dir, WALFile))
	if err != nil || !walOK || walEpoch != snapEpoch {
		return cursor{}
	}
	return cursor{epoch: snapEpoch, size: good}
}

// scanSessions maps every session directory under root to its cursor; the
// zero cursor marks one not in a coherent state. A missing root holds no
// sessions.
func scanSessions(root string) (map[string]cursor, error) {
	entries, err := os.ReadDir(root)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	out := make(map[string]cursor, len(entries))
	for _, e := range entries {
		if e.IsDir() && replSafeName(e.Name()) {
			out[e.Name()] = sessionCursor(filepath.Join(root, e.Name()))
		}
	}
	return out, nil
}

// readSessionFiles reads a session's complete durable file set for a sync
// frame, retrying a few times until the snapshot and WAL agree on an epoch
// (a checkpoint can land between reads). Volatile files (*.tmp, spill-*.db)
// are excluded: the spill regenerates from the WAL and temp files are
// atomic-write leftovers.
func readSessionFiles(dir string) (files []repFile, err error) {
	for attempt := 0; attempt < 3; attempt++ {
		files = files[:0]
		c := sessionCursor(dir)
		if c == (cursor{}) {
			err = fmt.Errorf("persist: session %s not in a coherent state", dir)
			continue
		}
		entries, rerr := os.ReadDir(dir)
		if rerr != nil {
			return nil, rerr
		}
		coherent := true
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || strings.HasSuffix(name, ".tmp") || strings.HasPrefix(name, "spill-") {
				continue
			}
			data, rerr := os.ReadFile(filepath.Join(dir, name))
			if rerr != nil {
				coherent = false
				break
			}
			if name == WALFile && int64(len(data)) > c.size {
				data = data[:c.size] // drop bytes appended mid-read; the stream ships them
			}
			files = append(files, repFile{name: name, data: data})
		}
		if !coherent {
			err = fmt.Errorf("persist: session %s changed mid-read", dir)
			continue
		}
		// Re-check: if a checkpoint landed while we read, the epoch moved and
		// the set may mix generations.
		if sessionCursor(dir).epoch == c.epoch {
			return files, nil
		}
		err = fmt.Errorf("persist: session %s checkpointed mid-read", dir)
	}
	return nil, err
}

// ---- frame encode/decode -------------------------------------------------

func encodeSync(id string, files []repFile) []byte {
	e := &enc{}
	e.u8(repSyncT)
	e.str(id)
	e.u32(uint32(len(files)))
	for _, f := range files {
		e.str(f.name)
		e.bytes(f.data)
	}
	return e.buf
}

func encodeAppend(id string, epoch uint64, off int64, data []byte) []byte {
	e := &enc{}
	e.u8(repAppendT)
	e.str(id)
	e.u64(epoch)
	e.u64(uint64(off))
	e.bytes(data)
	return e.buf
}

func encodeDelete(id string) []byte {
	e := &enc{}
	e.u8(repDeleteT)
	e.str(id)
	return e.buf
}

func encodeState(cursors map[string]cursor) []byte {
	e := &enc{}
	e.u8(repStateT)
	e.u32(uint32(len(cursors)))
	for id, c := range cursors {
		e.str(id)
		e.u64(c.epoch)
		e.u64(uint64(c.size))
	}
	return e.buf
}

// encodeAck reports session id's cursor after an apply; the zero cursor
// means the standby holds no coherent copy (deleted, or awaiting a resync).
func encodeAck(id string, c cursor) []byte {
	e := &enc{}
	e.u8(repAckT)
	e.str(id)
	e.u64(c.epoch)
	e.u64(uint64(c.size))
	return e.buf
}

func encodeResync(id string) []byte {
	e := &enc{}
	e.u8(repResyncT)
	e.str(id)
	return e.buf
}

// ---- Replica (standby side) ----------------------------------------------

// ReplicaStats is a point-in-time snapshot of a replica's apply counters.
type ReplicaStats struct {
	Connected      bool  `json:"connected"`
	AppliedRecords int64 `json:"applied_records"`
	AppliedBytes   int64 `json:"applied_bytes"`
	Syncs          int64 `json:"syncs"`
	Deletes        int64 `json:"deletes"`
	ResyncsSent    int64 `json:"resyncs_sent"`
}

// replicaSession is the replica's open handle on one session's WAL plus its
// cursor.
type replicaSession struct {
	f *os.File
	cursor
}

// Replica receives a primary's WAL stream and replays it into a local tree
// of session directories — a warm standby. It accepts one feed connection at
// a time (a newer connection supersedes the current one) and applies frames
// strictly in arrival order: write, fsync, then acknowledge, so an
// acknowledged frame survives a standby crash.
type Replica struct {
	root   string
	logger *slog.Logger

	mu       sync.Mutex
	sessions map[string]*replicaSession
	conn     net.Conn
	ln       net.Listener
	closed   bool
	wg       sync.WaitGroup

	connected      atomic.Bool
	appliedRecords atomic.Int64
	appliedBytes   atomic.Int64
	syncs          atomic.Int64
	deletes        atomic.Int64
	resyncsSent    atomic.Int64
}

// NewReplica creates a replica rooted at dir (created if absent). Call Serve
// with a listener to start receiving; Close to stop (the promotion path —
// after Close the directory tree is an ordinary sessions root a server can
// open).
func NewReplica(root string, logger *slog.Logger) (*Replica, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("persist: replica root: %w", err)
	}
	if logger == nil {
		logger = slog.Default()
	}
	return &Replica{root: root, logger: logger, sessions: make(map[string]*replicaSession)}, nil
}

// Root returns the replica's session tree root.
func (r *Replica) Root() string { return r.root }

// Stats returns the replica's apply counters.
func (r *Replica) Stats() ReplicaStats {
	return ReplicaStats{
		Connected:      r.connected.Load(),
		AppliedRecords: r.appliedRecords.Load(),
		AppliedBytes:   r.appliedBytes.Load(),
		Syncs:          r.syncs.Load(),
		Deletes:        r.deletes.Load(),
		ResyncsSent:    r.resyncsSent.Load(),
	}
}

// Serve accepts primary connections on ln until Close. Each new connection
// supersedes the previous one (a primary restart reconnects without waiting
// for a timeout).
func (r *Replica) Serve(ln net.Listener) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		ln.Close()
		return
	}
	r.ln = ln
	r.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			conn.Close()
			return
		}
		if r.conn != nil {
			r.conn.Close()
		}
		r.conn = conn
		r.mu.Unlock()
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.handleConn(conn)
		}()
	}
}

// Close stops the replica: listener, feed connection and every open WAL
// handle. The on-disk tree stays — that is the point.
func (r *Replica) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	if r.ln != nil {
		r.ln.Close()
	}
	if r.conn != nil {
		r.conn.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
	r.mu.Lock()
	defer r.mu.Unlock()
	for id, s := range r.sessions {
		if s.f != nil {
			_ = s.f.Sync()
			_ = s.f.Close()
		}
		delete(r.sessions, id)
	}
	return nil
}

// handleConn drives one feed connection: report cursors, then apply frames
// in order, acknowledging each after it is durable.
func (r *Replica) handleConn(conn net.Conn) {
	defer conn.Close()
	r.connected.Store(true)
	defer r.connected.Store(false)

	cursors := r.localCursors()
	if _, err := writeFrame(conn, encodeState(cursors)); err != nil {
		return
	}
	r.logger.Info("replica: feed connected", "remote", conn.RemoteAddr().String(), "sessions", len(cursors))

	br := bufio.NewReaderSize(conn, 1<<20)
	for {
		payload, err := readFrame(br)
		if err != nil {
			r.logger.Info("replica: feed closed", "err", err)
			return
		}
		id, resync, err := r.applyFrame(payload)
		if err != nil {
			r.logger.Error("replica: apply failed", "err", err)
			return
		}
		if resync {
			r.resyncsSent.Add(1)
			if _, err := writeFrame(conn, encodeResync(id)); err != nil {
				return
			}
		}
		var c cursor
		if s, err := r.openSession(id); err == nil {
			c = s.cursor
		}
		if _, err := writeFrame(conn, encodeAck(id, c)); err != nil {
			return
		}
	}
}

// localCursors scans the replica root and reports every session in a
// coherent state, truncating torn WAL tails so the reported size is exact.
// Open handles are dropped first — the scan re-derives state from disk.
func (r *Replica) localCursors() map[string]cursor {
	r.mu.Lock()
	for id, s := range r.sessions {
		if s.f != nil {
			_ = s.f.Close()
		}
		delete(r.sessions, id)
	}
	r.mu.Unlock()

	cursors, _ := scanSessions(r.root)
	for id, c := range cursors {
		if c == (cursor{}) {
			delete(cursors, id)
			continue
		}
		// Truncate any torn tail now so offset arithmetic stays exact.
		walPath := filepath.Join(r.root, id, WALFile)
		if fi, err := os.Stat(walPath); err == nil && fi.Size() > c.size {
			_ = os.Truncate(walPath, c.size)
		}
	}
	return cursors
}

// applyFrame decodes and applies one primary frame. It returns the frame's
// session ID (to acknowledge) and whether the cursor did not line up, so
// the session needs a resync. Only malformed frames error.
func (r *Replica) applyFrame(payload []byte) (id string, resync bool, err error) {
	d := &dec{buf: payload}
	typ := d.u8()
	id = d.str()
	switch typ {
	case repSyncT:
		n := int(d.u32())
		if d.err != nil || n > 1<<16 {
			return "", false, fmt.Errorf("malformed sync frame")
		}
		files := make([]repFile, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			name := d.str()
			data := d.bytes()
			files = append(files, repFile{name: name, data: data})
		}
		if d.err == nil {
			err = r.applySync(id, files)
		}
	case repAppendT:
		epoch := d.u64()
		off := int64(d.u64())
		data := d.bytes()
		if d.err == nil {
			resync, err = r.applyAppend(id, epoch, off, data)
		}
	case repDeleteT:
		if d.err == nil {
			err = r.applyDelete(id)
		}
	default:
		return "", false, fmt.Errorf("unknown replication frame type %d", typ)
	}
	if d.err != nil {
		return "", false, d.err
	}
	return id, resync, err
}

// applySync replaces a session directory with the shipped file set. Files
// land via temp+rename with the snapshot renamed last — its epoch is the
// commit point the cursor derives from — and files absent from the set
// (previous-epoch page files) are removed first.
func (r *Replica) applySync(id string, files []repFile) error {
	if !replSafeName(id) {
		return fmt.Errorf("unsafe session id %q", id)
	}
	keep := make(map[string]bool, len(files))
	for _, f := range files {
		if !replSafeName(f.name) {
			return fmt.Errorf("unsafe file name %q in sync of %s", f.name, id)
		}
		keep[f.name] = true
	}
	dir := filepath.Join(r.root, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	r.dropSession(id)
	if entries, err := os.ReadDir(dir); err == nil {
		for _, e := range entries {
			if !e.IsDir() && !keep[e.Name()] {
				_ = os.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}
	write := func(f repFile) error {
		tmp := filepath.Join(dir, f.name+".tmp")
		if err := os.WriteFile(tmp, f.data, 0o644); err != nil {
			return err
		}
		if fh, err := os.Open(tmp); err == nil {
			_ = fh.Sync()
			_ = fh.Close()
		}
		return os.Rename(tmp, filepath.Join(dir, f.name))
	}
	var snap *repFile
	for i := range files {
		if files[i].name == SnapshotFile {
			snap = &files[i]
			continue
		}
		if err := write(files[i]); err != nil {
			return err
		}
	}
	if snap != nil {
		if err := write(*snap); err != nil {
			return err
		}
	}
	if err := syncDir(fault.OS, dir); err != nil {
		return err
	}
	r.syncs.Add(1)
	r.appliedBytes.Add(int64(syncBytes(files)))
	return nil
}

func syncBytes(files []repFile) int {
	n := 0
	for _, f := range files {
		n += len(f.data)
	}
	return n
}

// applyAppend lands WAL bytes at (epoch, off). Duplicates (bytes the replica
// already holds) are ignored; a gap or an epoch ahead of the local snapshot
// asks for a resync; an epoch behind it is a stale duplicate from before a
// checkpoint the replica already applied.
func (r *Replica) applyAppend(id string, epoch uint64, off int64, data []byte) (resync bool, err error) {
	if !replSafeName(id) {
		return false, fmt.Errorf("unsafe session id %q", id)
	}
	s, err := r.openSession(id)
	if err != nil {
		return true, nil // unknown or incoherent session: ask for a sync
	}
	switch {
	case epoch < s.epoch:
		return false, nil // pre-checkpoint straggler; its effects are in the snapshot
	case epoch > s.epoch:
		return true, nil // we missed a checkpoint: resync
	case off > s.size:
		return true, nil // gap: resync
	case off+int64(len(data)) <= s.size:
		return false, nil // duplicate
	}
	tail := data[s.size-off:]
	if _, err := s.f.WriteAt(tail, s.size); err != nil {
		r.dropSession(id)
		return false, err
	}
	if err := s.f.Sync(); err != nil {
		r.dropSession(id)
		return false, err
	}
	s.size += int64(len(tail))
	r.appliedRecords.Add(1)
	r.appliedBytes.Add(int64(len(tail)))
	return false, nil
}

// applyDelete removes a session's directory.
func (r *Replica) applyDelete(id string) error {
	if !replSafeName(id) {
		return fmt.Errorf("unsafe session id %q", id)
	}
	r.dropSession(id)
	r.deletes.Add(1)
	return os.RemoveAll(filepath.Join(r.root, id))
}

// openSession returns the cached handle+cursor for id, deriving it from disk
// on first touch.
func (r *Replica) openSession(id string) (*replicaSession, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.sessions[id]; ok {
		return s, nil
	}
	dir := filepath.Join(r.root, id)
	c := sessionCursor(dir)
	if c == (cursor{}) {
		return nil, fmt.Errorf("session %s not in a coherent state", id)
	}
	f, err := os.OpenFile(filepath.Join(dir, WALFile), os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	s := &replicaSession{f: f, cursor: c}
	r.sessions[id] = s
	return s, nil
}

// dropSession closes and forgets the cached handle for id.
func (r *Replica) dropSession(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.sessions[id]; ok {
		if s.f != nil {
			_ = s.f.Close()
		}
		delete(r.sessions, id)
	}
}
