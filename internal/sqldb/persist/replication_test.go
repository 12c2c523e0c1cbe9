package persist

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

// startReplica spins up a Replica on an ephemeral localhost listener.
func startReplica(t *testing.T) (*Replica, string) {
	t.Helper()
	r, err := NewReplica(filepath.Join(t.TempDir(), "sessions"), nil)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go r.Serve(ln)
	t.Cleanup(func() { r.Close() })
	return r, ln.Addr().String()
}

// waitLagZero polls until the shipper is connected with zero lag — every
// standby cursor equals the primary's — or fails the test.
func waitLagZero(t *testing.T, s *Shipper) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := s.Stats()
		if st.Connected && st.LagSessions == 0 && st.LagBytes == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("replication lag did not drain: %+v", s.Stats())
}

func readFileT(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// sameSessionFiles asserts the primary and replica copies of a session are
// byte-identical file for file (the physical-replication contract).
func sameSessionFiles(t *testing.T, primaryDir, replicaDir string) {
	t.Helper()
	if err := diffSessionFiles(primaryDir, replicaDir); err != nil {
		t.Fatal(err)
	}
}

// diffSessionFiles reports the first durable file of a session whose
// primary and replica copies differ, or nil when they are byte-identical.
func diffSessionFiles(primaryDir, replicaDir string) error {
	entries, err := os.ReadDir(primaryDir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if filepath.Ext(name) == ".tmp" || len(name) > 6 && name[:6] == "spill-" {
			continue
		}
		p, err := os.ReadFile(filepath.Join(primaryDir, name))
		if err != nil {
			return err
		}
		r, err := os.ReadFile(filepath.Join(replicaDir, name))
		if err != nil {
			return err
		}
		if !bytes.Equal(p, r) {
			return fmt.Errorf("file %s differs: primary %d bytes, replica %d bytes", name, len(p), len(r))
		}
	}
	return nil
}

// TestReplicationStreamsAndLagDrains covers the happy path end to end:
// handshake sync ships the initial file set, live appends stream as exact
// framed bytes, and after traffic quiesces the lag gauges read zero with the
// replica byte-identical to the primary and openable as a real store.
func TestReplicationStreamsAndLagDrains(t *testing.T) {
	replica, addr := startReplica(t)
	root := filepath.Join(t.TempDir(), "sessions")
	ship := NewShipper(root, addr, nil)
	defer ship.Close(time.Second)

	const id = "s1"
	dir := filepath.Join(root, id)
	db := fixtureDB(t)
	st, err := Create(dir, db, Options{OnAppend: ship.OnAppend(id)})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ship.NoteSync(id)

	// Let the handshake sync land before writing: otherwise the file-set
	// ship can already contain the inserts' WAL records and the streamed
	// appends all skip as idempotent duplicates (AppliedRecords would
	// legitimately read 0).
	syncDeadline := time.Now().Add(5 * time.Second)
	for replica.Stats().Syncs == 0 {
		if time.Now().After(syncDeadline) {
			t.Fatal("initial sync never reached the replica")
		}
		time.Sleep(time.Millisecond)
	}

	for i := 0; i < 25; i++ {
		db.MustExec("INSERT INTO items VALUES (100, 'streamed', 1.0, TRUE)")
	}
	waitLagZero(t, ship)

	sameSessionFiles(t, dir, filepath.Join(replica.Root(), id))

	// The replica's copy must open as an ordinary store and replay to the
	// primary's exact state (this is what promotion does).
	db2, st2, err := Open(filepath.Join(replica.Root(), id), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	sameDump(t, db, db2)

	if rs := replica.Stats(); rs.AppliedRecords == 0 || rs.Syncs == 0 {
		t.Fatalf("replica applied nothing: %+v", rs)
	}
}

// TestReplicationTornTailResumes corrupts the replica's WAL mid-record (the
// shape a standby crash leaves) and reconnects: the handshake must truncate
// the torn tail, report the record-aligned cursor, and resume from exactly
// there — records already held are not applied twice.
func TestReplicationTornTailResumes(t *testing.T) {
	replica, addr := startReplica(t)
	root := filepath.Join(t.TempDir(), "sessions")

	// Swappable shipper behind a stable hook, so the store can outlive the
	// first connection the way a real primary outlives a standby restart.
	var cur atomic.Pointer[Shipper]
	const id = "s1"
	hook := func(epoch uint64, off int64, frame []byte) {
		if s := cur.Load(); s != nil {
			s.OnAppend(id)(epoch, off, frame)
		}
	}

	ship1 := NewShipper(root, addr, nil)
	cur.Store(ship1)
	dir := filepath.Join(root, id)
	db := fixtureDB(t)
	st, err := Create(dir, db, Options{OnAppend: hook})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ship1.NoteSync(id)
	for i := 0; i < 10; i++ {
		db.MustExec("INSERT INTO items VALUES (200, 'one', 2.0, FALSE)")
	}
	waitLagZero(t, ship1)
	cur.Store(nil)
	ship1.Close(time.Second)

	// Tear the replica's WAL mid-record and let the primary advance while
	// disconnected.
	repWAL := filepath.Join(replica.Root(), id, WALFile)
	fi, err := os.Stat(repWAL)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(repWAL, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		db.MustExec("INSERT INTO items VALUES (201, 'two', 3.0, TRUE)")
	}

	ship2 := NewShipper(root, addr, nil)
	cur.Store(ship2)
	defer ship2.Close(time.Second)
	waitLagZero(t, ship2)

	sameSessionFiles(t, dir, filepath.Join(replica.Root(), id))
	db2, st2, err := Open(filepath.Join(replica.Root(), id), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	// Double-applied INSERTs would show up as extra rows; the dumps must be
	// exactly equal.
	sameDump(t, db, db2)
}

// TestReplicationCheckpointEpochBump checkpoints the primary (epoch bump +
// WAL reset) and ships the new file set: the standby must reset to the new
// epoch — bare WAL, new snapshot — and keep streaming the new epoch's
// appends.
func TestReplicationCheckpointEpochBump(t *testing.T) {
	replica, addr := startReplica(t)
	root := filepath.Join(t.TempDir(), "sessions")
	ship := NewShipper(root, addr, nil)
	defer ship.Close(time.Second)

	const id = "s1"
	dir := filepath.Join(root, id)
	db := fixtureDB(t)
	st, err := Create(dir, db, Options{OnAppend: ship.OnAppend(id)})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ship.NoteSync(id)
	for i := 0; i < 8; i++ {
		db.MustExec("INSERT INTO items VALUES (300, 'pre', 4.0, TRUE)")
	}
	waitLagZero(t, ship)

	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ship.NoteSync(id) // what the serving layer announces after every checkpoint
	waitLagZero(t, ship)

	repDir := filepath.Join(replica.Root(), id)
	epoch, err := readSnapshotEpoch(filepath.Join(repDir, SnapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 {
		t.Fatalf("replica snapshot epoch = %d, want 2", epoch)
	}
	if fi, err := os.Stat(filepath.Join(repDir, WALFile)); err != nil || fi.Size() != walHeaderLen {
		t.Fatalf("replica WAL not reset: size %v err %v", fi, err)
	}

	// New-epoch appends keep streaming.
	db.MustExec("INSERT INTO items VALUES (301, 'post', 5.0, FALSE)")
	waitLagZero(t, ship)
	sameSessionFiles(t, dir, repDir)
}

// TestReplicaApplyCursorRules pins the offset/epoch idempotency rules of
// applyAppend without a network: duplicates are ignored byte-for-byte, gaps
// and future epochs request a resync, stale epochs are dropped silently.
func TestReplicaApplyCursorRules(t *testing.T) {
	root := filepath.Join(t.TempDir(), "sessions")
	const id = "s1"
	dir := filepath.Join(root, id)
	db := fixtureDB(t)
	st, err := Create(dir, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec("INSERT INTO items VALUES (400, 'x', 1.0, TRUE)")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReplica(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	wal := readFileT(t, filepath.Join(dir, WALFile))
	size := int64(len(wal))

	// Exact duplicate of an already-held range: ignored, file unchanged.
	resync, err := r.applyAppend(id, 1, walHeaderLen, wal[walHeaderLen:])
	if err != nil || resync {
		t.Fatalf("duplicate apply: resync=%v err=%v", resync, err)
	}
	if got := readFileT(t, filepath.Join(dir, WALFile)); !bytes.Equal(got, wal) {
		t.Fatalf("duplicate apply mutated the WAL")
	}

	// Gap past the cursor: resync requested, nothing written.
	if resync, err = r.applyAppend(id, 1, size+64, []byte("xxxx")); err != nil || !resync {
		t.Fatalf("gap apply: resync=%v err=%v", resync, err)
	}
	// Epoch ahead of the local snapshot: resync requested.
	if resync, err = r.applyAppend(id, 2, size, []byte("xxxx")); err != nil || !resync {
		t.Fatalf("future-epoch apply: resync=%v err=%v", resync, err)
	}
	// Epoch behind: a pre-checkpoint straggler, dropped without resync.
	if resync, err = r.applyAppend(id, 0, size, []byte("xxxx")); err != nil || resync {
		t.Fatalf("stale-epoch apply: resync=%v err=%v", resync, err)
	}
	if got := readFileT(t, filepath.Join(dir, WALFile)); !bytes.Equal(got, wal) {
		t.Fatalf("rejected applies mutated the WAL")
	}

	// Overlapping tail: only the unseen suffix lands.
	extra := frameBytes([]byte{9, 9, 9})
	combined := append(append([]byte{}, wal[walHeaderLen:]...), extra...)
	if resync, err = r.applyAppend(id, 1, walHeaderLen, combined); err != nil || resync {
		t.Fatalf("overlap apply: resync=%v err=%v", resync, err)
	}
	want := append(append([]byte{}, wal...), extra...)
	if got := readFileT(t, filepath.Join(dir, WALFile)); !bytes.Equal(got, want) {
		t.Fatalf("overlap apply wrote wrong bytes: %d vs want %d", len(got), len(want))
	}
}

// TestReplicaDeleteAndDiffDelete covers session removal: a streamed delete
// frame removes the standby copy, and the handshake diff deletes standby
// sessions the primary no longer has.
func TestReplicaDeleteAndDiffDelete(t *testing.T) {
	replica, addr := startReplica(t)
	root := filepath.Join(t.TempDir(), "sessions")
	ship := NewShipper(root, addr, nil)
	defer ship.Close(time.Second)

	const id = "s1"
	dir := filepath.Join(root, id)
	db := fixtureDB(t)
	st, err := Create(dir, db, Options{OnAppend: ship.OnAppend(id)})
	if err != nil {
		t.Fatal(err)
	}
	ship.NoteSync(id)
	waitLagZero(t, ship)
	if _, err := os.Stat(filepath.Join(replica.Root(), id, SnapshotFile)); err != nil {
		t.Fatalf("replica missing session before delete: %v", err)
	}

	st.Close()
	if err := Remove(dir); err != nil {
		t.Fatal(err)
	}
	ship.NoteDelete(id)
	waitLagZero(t, ship)
	if _, err := os.Stat(filepath.Join(replica.Root(), id)); !os.IsNotExist(err) {
		t.Fatalf("replica still holds deleted session: %v", err)
	}
}

// TestShipperReplyFrames pins the ack wire format: an ack sets or clears
// the standby cursor, and a truncated ack or an unknown frame type is an
// error (the reader drops the connection on it) that moves no cursor.
func TestShipperReplyFrames(t *testing.T) {
	s := &Shipper{acked: make(map[string]cursor)}
	c := cursor{epoch: 2, size: 99}
	ack := encodeAck("s1", c)
	if err := s.handleReply(ack); err != nil || s.acked["s1"] != c {
		t.Fatalf("ack: err=%v acked=%v", err, s.acked)
	}
	if err := s.handleReply(encodeAck("s1", cursor{})); err != nil || len(s.acked) != 0 {
		t.Fatalf("absent ack: err=%v acked=%v", err, s.acked)
	}
	if err := s.handleReply(ack[:len(ack)-1]); err == nil || len(s.acked) != 0 {
		t.Fatalf("truncated ack: err=%v acked=%v", err, s.acked)
	}
	if err := s.handleReply(encodeResync("s1")[:3]); err == nil {
		t.Fatal("truncated resync accepted")
	}
	if err := s.handleReply([]byte{99, 0, 0, 0, 0}); err == nil {
		t.Fatal("unknown frame type accepted")
	}
}
