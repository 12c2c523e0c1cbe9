package persist

import (
	"errors"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"

	"justintime/internal/fault"
)

// Targeted fault-injection tests for the durability path: specific disk
// failures must surface as the RIGHT kind of error — transient I/O troubles
// must never classify as corruption (which would trigger quarantine), a
// full disk must classify as ENOSPC through every wrap layer (which
// triggers degraded mode), and a failed checkpoint must leave the store
// retryable with nothing acknowledged lost.

// TestCheckpointFsyncFailureIsRetryable: the first snapshot fsync of a
// checkpoint dies; the checkpoint reports the error, a retry succeeds, and
// a reopen sees every acknowledged write.
func TestCheckpointFsyncFailureIsRetryable(t *testing.T) {
	dir := t.TempDir()
	db := fixtureDB(t)
	inj := fault.NewInjector(nil)
	st, err := Create(dir, db, Options{FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec("INSERT INTO items VALUES (50, 'pre-ckpt', 0.5, TRUE)")

	inj.AddRule(fault.Rule{Op: fault.OpSync, Path: "snapshot", Nth: 1, Times: 1})
	if err := st.Checkpoint(); err == nil {
		t.Fatal("checkpoint swallowed the injected fsync failure")
	} else if IsCorrupt(err) {
		t.Fatalf("fsync failure classified as corruption: %v", err)
	}
	// The store is still live: the retry checkpoints cleanly and later
	// mutations keep flowing to the WAL.
	if err := st.Checkpoint(); err != nil {
		t.Fatalf("checkpoint retry: %v", err)
	}
	db.MustExec("INSERT INTO items VALUES (51, 'post-ckpt', 1.5, FALSE)")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	db2, st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after failed+retried checkpoint: %v", err)
	}
	defer st2.Close()
	sameDump(t, db, db2)
}

// TestWALAppendENOSPCClassifies: a full disk during a WAL append must reach
// the caller as an error satisfying fault.IsNoSpace — that is the signal
// the server keys degraded read-only mode on.
func TestWALAppendENOSPCClassifies(t *testing.T) {
	dir := t.TempDir()
	db := fixtureDB(t)
	inj := fault.NewInjector(nil)
	st, err := Create(dir, db, Options{FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	inj.AddRule(fault.Rule{Op: fault.OpMutate, Path: WALFile, Nth: 1, Err: fault.ErrNoSpace, Times: 1})
	_, err = db.Exec("INSERT INTO items VALUES (60, 'no-room', 0.5, TRUE)")
	if err == nil {
		t.Fatal("insert acknowledged on a full disk")
	}
	if !fault.IsNoSpace(err) {
		t.Fatalf("ENOSPC lost in the wrap chain: %v", err)
	}
	if IsCorrupt(err) {
		t.Fatalf("ENOSPC classified as corruption: %v", err)
	}
}

// TestOpenEIOReadIsNotCorrupt: a transient read error while opening a store
// must NOT look like corruption — quarantining a healthy session over a
// flaky cable would be data loss by another name.
func TestOpenEIOReadIsNotCorrupt(t *testing.T) {
	dir := t.TempDir()
	db := fixtureDB(t)
	st, err := Create(dir, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	inj := fault.NewInjector(nil)
	inj.AddRule(fault.Rule{Op: fault.OpRead, Path: SnapshotFile, Nth: 1, Err: fault.ErrIO, Times: 1})
	if _, _, err := Open(dir, Options{FS: inj}); err == nil {
		t.Fatal("open succeeded through a failing read")
	} else if IsCorrupt(err) {
		t.Fatalf("transient EIO classified as corruption: %v", err)
	} else if !errors.Is(err, syscall.EIO) {
		t.Fatalf("EIO identity lost in the wrap chain: %v", err)
	}

	// The same store opens fine once the rule has burned off (same injector,
	// proving the failure really was transient, not stateful).
	db2, st2, err := Open(dir, Options{FS: inj})
	if err != nil {
		t.Fatalf("reopen after transient EIO: %v", err)
	}
	defer st2.Close()
	sameDump(t, db, db2)
}

// TestTornWALAppendDroppedOnReplay: an append torn mid-frame (the classic
// power-loss artifact) is not acknowledged, and replay discards the ragged
// tail instead of erroring — the store recovers to the acked prefix.
func TestTornWALAppendDroppedOnReplay(t *testing.T) {
	dir := t.TempDir()
	db := fixtureDB(t)
	inj := fault.NewInjector(nil)
	st, err := Create(dir, db, Options{FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO items VALUES (70, 'acked', 7.5, TRUE)"); err != nil {
		t.Fatal(err)
	}
	want := db.Dump() // state after the last acknowledged write

	inj.AddRule(fault.Rule{Op: fault.OpWrite, Path: WALFile, Nth: 1, Torn: 5, Times: 1})
	if _, err := db.Exec("INSERT INTO items VALUES (71, 'torn', 0.25, FALSE)"); err == nil {
		t.Fatal("torn append was acknowledged")
	}
	st.Close() // best effort; the WAL tail is ragged

	db2, st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery from torn WAL tail: %v", err)
	}
	defer st2.Close()
	got := db2.Dump()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state is not the acked prefix:\ngot:  %#v\nwant: %#v", got, want)
	}
}

// TestFailedWALAppendStaysFailedUntilCheckpoint: after a WAL append that
// fails (a full disk) or is torn mid-frame, the log refuses every later
// append, even once the fault has cleared, because the file may hold a
// partial frame at its tail. A checkpoint folds the live state into a new
// snapshot and resets the log, after which appends succeed again. Until
// then, a reopen recovers exactly the acknowledged writes.
func TestFailedWALAppendStaysFailedUntilCheckpoint(t *testing.T) {
	cases := []struct {
		name string
		rule fault.Rule
		want error
	}{
		{"enospc", fault.Rule{Op: fault.OpWrite, Path: WALFile, Nth: 1, Times: 1, Err: fault.ErrNoSpace}, fault.ErrNoSpace},
		{"torn", fault.Rule{Op: fault.OpWrite, Path: WALFile, Nth: 1, Times: 1, Torn: 5}, fault.ErrIO},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			db := fixtureDB(t)
			inj := fault.NewInjector(nil)
			st, err := Create(dir, db, Options{FS: inj})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if _, err := db.Exec("INSERT INTO items VALUES (80, 'acked', 8.5, TRUE)"); err != nil {
				t.Fatal(err)
			}
			acked := db.Dump()

			inj.AddRule(c.rule)
			if _, err := db.Exec("INSERT INTO items VALUES (81, 'failed', 0.5, FALSE)"); !errors.Is(err, c.want) {
				t.Fatalf("faulted append: got %v, want %v", err, c.want)
			}
			// The rule is spent, but the log still refuses the append.
			if _, err := db.Exec("INSERT INTO items VALUES (82, 'refused', 1.5, TRUE)"); !errors.Is(err, c.want) {
				t.Fatalf("append after the fault: got %v, want %v", err, c.want)
			}

			// A reopen of the files as they stand sees only acked writes.
			cp := filepath.Join(t.TempDir(), "copy")
			copyStoreDir(t, dir, cp)
			db2, st2, err := Open(cp, Options{})
			if err != nil {
				t.Fatalf("reopen after failed append: %v", err)
			}
			if got := db2.Dump(); !reflect.DeepEqual(got, acked) {
				t.Fatalf("reopen is not the acked state:\ngot:  %#v\nwant: %#v", got, acked)
			}
			st2.Close()

			if err := st.Checkpoint(); err != nil {
				t.Fatalf("checkpoint after failed append: %v", err)
			}
			if _, err := db.Exec("INSERT INTO items VALUES (83, 'after', 2.5, FALSE)"); err != nil {
				t.Fatalf("append after checkpoint: %v", err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			db3, st3, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("reopen after checkpoint: %v", err)
			}
			defer st3.Close()
			sameDump(t, db, db3)
		})
	}
}
