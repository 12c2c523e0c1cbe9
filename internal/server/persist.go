package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"regexp"
	"time"

	"justintime/internal/core"
	"justintime/internal/fault"
	"justintime/internal/sqldb/pager"
	"justintime/internal/sqldb/persist"
)

// sessionIDPattern is the exact shape newSessionID produces. Session IDs
// name directories under the data dir, so anything else — in particular a
// path-traversing id from the URL — must never reach the filesystem.
var sessionIDPattern = regexp.MustCompile(`^s-[0-9a-f]{32}$`)

const metaFile = "meta.json"

// sessionMeta is the per-session sidecar holding what the candidates
// database alone cannot reconstruct: the applicant's original profile (x_0
// may differ from it under custom temporal rules) and the constraint sources
// for operator inspection.
type sessionMeta struct {
	Profile     []float64 `json:"profile"`
	Constraints []string  `json:"constraints,omitempty"`
	CreatedAt   time.Time `json:"created_at"`
}

// persister owns the on-disk session area (<data-dir>/sessions/<id>/) and
// the snapshot/WAL lifecycle of each session database.
type persister struct {
	root string
	sys  *core.System
	opts persist.Options
	pool *pager.Pool // non-nil: candidates tables go on paged storage
	// fs is the I/O plane every durable write goes through — the real
	// filesystem in production, a fault.Injector under test/chaos.
	fs fault.FS
	// logger, when non-nil, replaces slog.Default() for persistence
	// diagnostics (quarantine events). Wired by the Server.
	logger *slog.Logger
	// shipper, when non-nil, streams this session tree to a warm standby:
	// WAL appends ride per-session OnAppend hooks, file-set changes (create,
	// checkpoint) and deletions are announced through it. Wired by the Server
	// right after construction, before any session exists.
	shipper *persist.Shipper
}

// newPersister prepares <dataDir>/sessions and sweeps orphans left by a
// crash (directories without a complete snapshot, stray temp files). A
// non-nil pool opts every session's candidates table into paged storage.
// A non-nil fsys routes every durable write through it (fault injection).
func newPersister(dataDir string, sys *core.System, sync persist.SyncMode, pool *pager.Pool, fsys fault.FS) *persister {
	p := &persister{
		root: filepath.Join(dataDir, "sessions"),
		sys:  sys,
		pool: pool,
		fs:   fault.Of(fsys),
		opts: persist.Options{
			Sync:       sync,
			OnWALWrite: func(n int) { metricWALBytes.Add(int64(n)) },
			OnFsync:    func(d time.Duration) { walFsyncHist.observe(d) },
			Pool:       pool,
			FS:         fsys,
		},
	}
	_ = p.fs.MkdirAll(p.root, 0o755)
	p.sweepOrphans()
	return p
}

// log returns the persister's structured logger.
func (p *persister) log() *slog.Logger {
	if p.logger != nil {
		return p.logger
	}
	return slog.Default()
}

// optsFor returns the store options for one session, with the replication
// append hook bound to its id when shipping is on.
func (p *persister) optsFor(id string) persist.Options {
	opts := p.opts
	if p.shipper != nil {
		opts.OnAppend = p.shipper.OnAppend(id)
	}
	return opts
}

// noteSync announces that id's durable file set changed shape (created or
// checkpointed). Nil-safe when shipping is off.
func (p *persister) noteSync(id string) {
	if p.shipper != nil {
		p.shipper.NoteSync(id)
	}
}

// dir maps a validated session id to its directory.
func (p *persister) dir(id string) (string, bool) {
	if !sessionIDPattern.MatchString(id) {
		return "", false
	}
	return filepath.Join(p.root, id), true
}

// create makes id's directory the durable home of a freshly generated
// session: the sidecar metadata, a full snapshot of the candidates database,
// and an empty WAL attached to it. A failure cleans the directory up —
// creation is atomic-or-absent from the rehydrator's point of view.
func (p *persister) create(id string, sess *core.Session, constraintSrcs []string) (*persist.Store, error) {
	dir, ok := p.dir(id)
	if !ok {
		return nil, fmt.Errorf("server: unsafe session id %q", id)
	}
	if err := p.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	meta := sessionMeta{Profile: sess.Profile(), Constraints: constraintSrcs, CreatedAt: time.Now().UTC().Truncate(time.Second)}
	if err := writeFileAtomic(p.fs, filepath.Join(dir, metaFile), meta); err != nil {
		p.fs.RemoveAll(dir)
		return nil, err
	}
	if p.pool != nil {
		// Move the bulky candidates table off the heap before the first
		// snapshot: its rows land in slotted pages, and persist.Create
		// checkpoints the page file alongside the snapshot.
		if err := sess.DB().PageTableFS(p.opts.FS, core.CandidatesTable, p.pool, filepath.Join(dir, persist.SpillFileName(core.CandidatesTable))); err != nil {
			sess.DB().ClosePagedStores()
			p.fs.RemoveAll(dir)
			return nil, err
		}
	}
	store, err := persist.Create(dir, sess.DB(), p.optsFor(id))
	if err != nil {
		sess.DB().ClosePagedStores()
		p.fs.RemoveAll(dir)
		return nil, err
	}
	p.noteSync(id)
	return store, nil
}

// errSessionNotOnDisk distinguishes "this id was never persisted" (a plain
// 404) from "persisted but unreadable" (worth logging).
var errSessionNotOnDisk = errors.New("server: session not on disk")

// open rehydrates id from disk: snapshot + WAL into a database, then a live
// Session around it — no candidate regeneration. A store whose snapshot or
// page file fails its structural checks (bad magic, CRC mismatch, truncated
// frame) is quarantined: the directory moves aside, the id reports a plain
// miss, and the rest of the process keeps serving. Transient device errors
// (EIO) are NOT corruption and surface as ordinary failures instead.
func (p *persister) open(id string) (*core.Session, *persist.Store, error) {
	dir, ok := p.dir(id)
	if !ok {
		return nil, nil, errSessionNotOnDisk
	}
	if _, err := p.fs.Stat(filepath.Join(dir, persist.SnapshotFile)); err != nil {
		return nil, nil, errSessionNotOnDisk
	}
	var meta sessionMeta
	if f, err := p.fs.Open(filepath.Join(dir, metaFile)); err == nil {
		raw, rerr := io.ReadAll(f)
		f.Close()
		if rerr == nil {
			_ = json.Unmarshal(raw, &meta) // tolerate a missing/corrupt sidecar: x_0 stands in
		}
	}
	db, store, err := persist.Open(dir, p.optsFor(id))
	if err != nil {
		if persist.IsCorrupt(err) && p.quarantine(id, dir, err) {
			return nil, nil, errSessionNotOnDisk
		}
		return nil, nil, err
	}
	sess, err := p.sys.RestoreSession(db, meta.Profile)
	if err != nil {
		store.Close()
		return nil, nil, err
	}
	return sess, store, nil
}

// quarantine moves a corrupt session directory to <data-dir>/quarantine/<id>
// so the damaged bytes survive for forensics while the id stops resolving.
// It uses the real filesystem deliberately: the move must succeed even while
// an injector is failing I/O, or the server would re-read the same corrupt
// snapshot forever.
func (p *persister) quarantine(id, dir string, cause error) bool {
	qroot := filepath.Join(filepath.Dir(p.root), "quarantine")
	if err := os.MkdirAll(qroot, 0o755); err != nil {
		return false
	}
	dest := filepath.Join(qroot, id)
	_ = os.RemoveAll(dest) // a prior quarantine of the same id: keep the newest
	if err := os.Rename(dir, dest); err != nil {
		return false
	}
	metricSessionsQuarantined.Add(1)
	if p.shipper != nil {
		// The id is gone from this primary; tell the standby now rather than
		// at the next handshake diff, so replication lag can return to 0.
		p.shipper.NoteDelete(id)
	}
	p.log().Error("session store corrupt; quarantined",
		"session_id", id, "quarantine_dir", dest, "err", cause)
	return true
}

// remove deletes id's on-disk files, reporting whether any existed.
func (p *persister) remove(id string) bool {
	dir, ok := p.dir(id)
	if !ok {
		return false
	}
	if _, err := p.fs.Stat(dir); err != nil {
		return false
	}
	if persist.Remove(dir) != nil {
		return false
	}
	if p.shipper != nil {
		p.shipper.NoteDelete(id)
	}
	return true
}

// sweepOrphans removes the debris an unclean shutdown can leave in the
// session area: entries that are not session directories, directories whose
// snapshot never completed (creation crashed before the atomic rename), and
// stray *.tmp files anywhere in between.
func (p *persister) sweepOrphans() {
	entries, err := p.fs.ReadDir(p.root)
	if err != nil {
		return
	}
	for _, e := range entries {
		full := filepath.Join(p.root, e.Name())
		if !e.IsDir() {
			if filepath.Ext(e.Name()) == ".tmp" {
				_ = p.fs.Remove(full)
			}
			continue
		}
		if !sessionIDPattern.MatchString(e.Name()) {
			continue // not ours; leave it alone
		}
		if _, err := p.fs.Stat(filepath.Join(full, persist.SnapshotFile)); err != nil {
			_ = p.fs.RemoveAll(full) // create never committed
		}
	}
}

// writeFileAtomic JSON-encodes v into path via the temp-write-rename dance,
// so a crash never leaves a partial file under the final name.
func writeFileAtomic(fsys fault.FS, path string, v interface{}) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(raw); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return err
	}
	return nil
}
