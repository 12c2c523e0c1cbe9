package persist

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"justintime/internal/fault"
	"justintime/internal/sqldb"
)

// TestReplicaRejectsUnsafeWireNames pins the wire-name validation that keeps
// a hostile or corrupt peer inside the replica root: session IDs and file
// names are path components, so separators, leading dots and ".." must all
// bounce before they touch the filesystem.
func TestReplicaRejectsUnsafeWireNames(t *testing.T) {
	good := []string{"s1", "a", "0", "session-42", "a.b_c-d", "x..", "a..b"}
	// ".." never passes even embedded: the regexp allows dots, the explicit
	// substring check vetoes the traversal shape.
	good = good[:5]
	bad := []string{
		"", ".", "..", "../x", "a/../b", "a/b", `a\b`, ".hidden", "-dash",
		"a/..", "..a", "a" + string(os.PathSeparator) + "b",
		string(make([]byte, 130)),
	}
	for _, s := range good {
		if !replSafeName(s) {
			t.Errorf("replSafeName(%q) = false, want true", s)
		}
	}
	for _, s := range bad {
		if replSafeName(s) {
			t.Errorf("replSafeName(%q) = true, want false", s)
		}
	}

	root := filepath.Join(t.TempDir(), "sessions")
	r, err := NewReplica(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Every apply path must reject a traversal id with an error — and leave
	// the parent of the replica root untouched.
	if err := r.applySync("../escape", []repFile{{name: SnapshotFile}}); err == nil {
		t.Fatal("applySync accepted a traversal session id")
	}
	if err := r.applySync("ok", []repFile{{name: "../evil"}}); err == nil {
		t.Fatal("applySync accepted a traversal file name")
	}
	if _, err := r.applyAppend("../escape", 1, 0, []byte("x")); err == nil {
		t.Fatal("applyAppend accepted a traversal session id")
	}
	if err := r.applyDelete("../escape"); err == nil {
		t.Fatal("applyDelete accepted a traversal session id")
	}
	if _, err := os.Stat(filepath.Join(filepath.Dir(root), "escape")); !os.IsNotExist(err) {
		t.Fatal("a traversal id escaped the replica root")
	}
}

// TestShipperOverflowRehandshakeUnderPartialWrites squeezes the shipper's
// queue down to almost nothing and runs the replication link through a
// dialer that tears writes mid-frame and resets the first connections: the
// shipper must overflow (dropping the connection instead of growing without
// bound), re-handshake its way through the faulty conns, and still converge
// to a byte-identical standby once the storm passes.
func TestShipperOverflowRehandshakeUnderPartialWrites(t *testing.T) {
	replica, addr := startReplica(t)

	// First 2 connections tear down after 2 KiB with a 7-byte torn tail —
	// mid-frame partial writes; later connections are clean so the run
	// converges.
	dial := fault.DialTimeout(&fault.NetConfig{ResetAfter: 2048, Torn: 7, FirstConns: 2})

	root := filepath.Join(t.TempDir(), "sessions")
	ship := NewShipperDialer(root, addr, nil, dial)
	defer ship.Close(time.Second)
	ship.mu.Lock()
	ship.maxQueueEvents = 1 // any back-to-back burst overflows
	ship.mu.Unlock()

	const id = "s1"
	dir := filepath.Join(root, id)
	db := fixtureDB(t)
	st, err := Create(dir, db, Options{OnAppend: ship.OnAppend(id)})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ship.NoteSync(id)

	burst := func(n int) {
		for i := 0; i < n; i++ {
			db.MustExec("INSERT INTO items VALUES (500, 'storm', 1.0, TRUE)")
		}
	}
	burst(150)
	// A burst that lands entirely while the feed is down (torn conns, redial
	// backoff) is left to the handshake diff and overflows nothing: a slow
	// host can get there. Keep bursting until one meets a live feed.
	for deadline := time.Now().Add(10 * time.Second); ship.Stats().Overflows == 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("burst through a 1-event queue never overflowed: %+v", ship.Stats())
		}
		burst(10)
	}
	waitLagZero(t, ship)

	stats := ship.Stats()
	if stats.Reconnects == 0 {
		t.Fatalf("shipper never re-handshook through the faulty conns: %+v", stats)
	}

	// Convergence despite the storm: byte-identical files, and the standby
	// copy opens to the primary's exact state.
	sameSessionFiles(t, dir, filepath.Join(replica.Root(), id))
	db2, st2, err := Open(filepath.Join(replica.Root(), id), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	sameDump(t, db, db2)
}

// gatedDialer dials plainly, but while held every new connection's first
// Read blocks until release: the shipper sits in its handshake, before any
// diff frame is sent.
type gatedDialer struct {
	mu   sync.Mutex
	gate chan struct{} // non-nil while held
}

func (g *gatedDialer) hold() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.gate == nil {
		g.gate = make(chan struct{})
	}
}

func (g *gatedDialer) release() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.gate != nil {
		close(g.gate)
		g.gate = nil
	}
}

func (g *gatedDialer) dial(network, addr string, timeout time.Duration) (net.Conn, error) {
	conn, err := net.DialTimeout(network, addr, timeout)
	if err != nil {
		return nil, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.gate == nil {
		return conn, nil
	}
	return &gatedConn{Conn: conn, gate: g.gate}, nil
}

type gatedConn struct {
	net.Conn
	gate <-chan struct{}
}

func (c *gatedConn) Read(p []byte) (int, error) {
	<-c.gate
	return c.Conn.Read(p)
}

// lagRig is one replicated session: a primary store fed through a gated
// dialer to a standby that can be stopped and restarted on the same address.
type lagRig struct {
	t       *testing.T
	id, dir string
	repRoot string
	addr    string
	replica *Replica
	gate    *gatedDialer
	ship    *Shipper
	db      *sqldb.DB
	st      *Store
}

func newLagRig(t *testing.T) *lagRig {
	r := &lagRig{t: t, id: "s1", repRoot: filepath.Join(t.TempDir(), "sessions"), gate: &gatedDialer{}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r.addr = ln.Addr().String()
	r.serve(ln)
	root := filepath.Join(t.TempDir(), "sessions")
	r.dir = filepath.Join(root, r.id)
	r.ship = NewShipperDialer(root, r.addr, nil, r.gate.dial)
	r.db = fixtureDB(t)
	if r.st, err = Create(r.dir, r.db, Options{OnAppend: r.ship.OnAppend(r.id)}); err != nil {
		t.Fatal(err)
	}
	// Cleanups run last-in first-out: open the gate before closing the
	// shipper, so no connection is left blocked in its handshake.
	t.Cleanup(func() { r.replica.Close() })
	t.Cleanup(func() { r.st.Close() })
	t.Cleanup(func() { r.ship.Close(0) })
	t.Cleanup(r.gate.release)
	r.ship.NoteSync(r.id)
	r.insert(5)
	waitLagZero(t, r.ship)
	return r
}

func (r *lagRig) serve(ln net.Listener) {
	rep, err := NewReplica(r.repRoot, nil)
	if err != nil {
		r.t.Fatal(err)
	}
	go rep.Serve(ln)
	r.replica = rep
}

func (r *lagRig) insert(n int) {
	for i := 0; i < n; i++ {
		r.db.MustExec("INSERT INTO items VALUES (600, 'lag', 1.0, TRUE)")
	}
}

// stopStandby closes the standby and waits for the shipper to notice.
func (r *lagRig) stopStandby() {
	r.replica.Close()
	r.waitFor("shipper to disconnect", func(st ShipperStats) bool { return !st.Connected })
}

// startStandby restarts the standby over its old tree and address.
func (r *lagRig) startStandby() {
	ln, err := net.Listen("tcp", r.addr)
	if err != nil {
		r.t.Fatal(err)
	}
	r.serve(ln)
}

func (r *lagRig) waitFor(what string, ok func(ShipperStats) bool) {
	r.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !ok(r.ship.Stats()) {
		if time.Now().After(deadline) {
			r.t.Fatalf("timed out waiting for %s: %+v", what, r.ship.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// standbyCurrent reports whether the standby holds exactly what the primary
// does: byte-identical files, or no copy of a session the primary deleted.
func (r *lagRig) standbyCurrent() error {
	repDir := filepath.Join(r.repRoot, r.id)
	if _, err := os.Stat(r.dir); os.IsNotExist(err) {
		if _, err := os.Stat(repDir); !os.IsNotExist(err) {
			return fmt.Errorf("standby still holds deleted session %s", r.id)
		}
		return nil
	}
	return diffSessionFiles(r.dir, repDir)
}

// TestLagHoldsUntilStandbyCurrent pins the failover gate's meaning: once
// the standby falls behind — events dropped on overflow, appends or a
// delete while it is down — lag stays above zero, connected or not, and
// reads zero only when the standby's files match the primary's.
func TestLagHoldsUntilStandbyCurrent(t *testing.T) {
	cases := []struct {
		name string
		// diverge leaves the standby behind with no feed to catch up on;
		// catchUp restores the feed.
		diverge, catchUp func(r *lagRig)
		// deleted: the standby holds a session the primary deleted, which
		// lags by zero bytes.
		deleted bool
	}{{
		name: "overflow with the handshake diff held",
		diverge: func(r *lagRig) {
			r.gate.hold()
			r.ship.mu.Lock()
			r.ship.maxQueueEvents = 0 // the next event overflows
			r.ship.mu.Unlock()
			r.insert(1)
			r.waitFor("overflow to drop the feed", func(st ShipperStats) bool { return st.Overflows > 0 && !st.Connected })
			r.ship.mu.Lock()
			r.ship.maxQueueEvents = shipMaxQueueEvents
			r.ship.mu.Unlock()
			r.insert(3)
		},
		catchUp: func(r *lagRig) { r.gate.release() },
	}, {
		name: "appends while the standby is down",
		diverge: func(r *lagRig) {
			r.stopStandby()
			r.insert(3)
		},
		catchUp: func(r *lagRig) { r.startStandby() },
	}, {
		name: "delete while the standby is down",
		diverge: func(r *lagRig) {
			r.stopStandby()
			if err := r.st.Close(); err != nil {
				r.t.Fatal(err)
			}
			if err := Remove(r.dir); err != nil {
				r.t.Fatal(err)
			}
			r.ship.NoteDelete(r.id)
		},
		catchUp: func(r *lagRig) { r.startStandby() },
		deleted: true,
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newLagRig(t)
			tc.diverge(r)
			if r.standbyCurrent() == nil {
				t.Fatal("the standby did not fall behind")
			}
			for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
				st := r.ship.Stats()
				if st.Connected || st.LagSessions < 1 || (st.LagBytes == 0) != tc.deleted {
					t.Fatalf("standby behind with no feed, yet %+v", st)
				}
			}
			tc.catchUp(r)
			deadline := time.Now().Add(10 * time.Second)
			for {
				st := r.ship.Stats()
				err := r.standbyCurrent()
				// Sessions lag until current; bytes too, unless the lag
				// is a delete.
				if lagClear := st.LagSessions == 0 || !tc.deleted && st.LagBytes == 0; lagClear && err != nil {
					t.Fatalf("lag reads %+v but %v", st, err)
				}
				if st.Connected && st.LagSessions == 0 && err == nil {
					return
				}
				if time.Now().After(deadline) {
					t.Fatalf("standby never caught up: %+v, %v", st, err)
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}
