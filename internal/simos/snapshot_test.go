package simos

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/ids"
)

// TestSnapshotGenerationInvalidation proves the copy-on-write
// snapshot contract: unchanged tables serve the identical cached
// slice, every mutation invalidates it, and a stale snapshot is never
// served after a mutation.
func TestSnapshotGenerationInvalidation(t *testing.T) {
	tb := NewTable(nil)
	p1 := tb.Spawn(testCred(1000), 0, "a")
	p2 := tb.Spawn(testCred(2000), 0, "b")

	s1 := tb.All()
	s2 := tb.All()
	if len(s1) != 2 || len(s2) != 2 {
		t.Fatalf("All lens = %d, %d, want 2", len(s1), len(s2))
	}
	// No mutation between the two calls: the cached snapshot is
	// shared, not rebuilt.
	if &s1[0] != &s2[0] {
		t.Errorf("idle table rebuilt its snapshot")
	}
	gen := tb.Generation()
	if tb.Generation() != gen {
		t.Errorf("Generation changed without a mutation")
	}

	// Every mutating operation must bump the generation and serve a
	// fresh snapshot reflecting the change.
	if err := tb.SetJob(p1.PID, 7); err != nil {
		t.Fatal(err)
	}
	if tb.Generation() == gen {
		t.Fatalf("SetJob did not bump generation")
	}
	s3 := tb.All()
	if s3[0].JobID != 7 {
		t.Errorf("stale snapshot served after SetJob: JobID = %d", s3[0].JobID)
	}
	// The earlier snapshot is immutable: it must still show the old
	// JobID (copy-on-write replaced the entry, not mutated it).
	if s1[0].JobID != 0 {
		t.Errorf("published snapshot entry mutated in place: JobID = %d", s1[0].JobID)
	}

	if err := tb.SetRSS(p2.PID, 1234); err != nil {
		t.Fatal(err)
	}
	if got := tb.All()[1].RSS; got != 1234 {
		t.Errorf("stale snapshot after SetRSS: RSS = %d", got)
	}

	if err := tb.Exit(p1.PID); err != nil {
		t.Fatal(err)
	}
	if got := tb.All(); len(got) != 1 || got[0].PID != p2.PID {
		t.Errorf("stale snapshot after Exit: %v", got)
	}
	// And the pre-exit snapshot still lists both processes.
	if len(s3) != 2 {
		t.Errorf("old snapshot shrank after Exit: len = %d", len(s3))
	}

	tb.Spawn(testCred(1000), 0, "c")
	if got := tb.All(); len(got) != 2 {
		t.Errorf("stale snapshot after Spawn: len = %d", len(got))
	}
}

// TestVisitOrderAndEarlyStop checks Visit sees the PID-sorted
// snapshot and honours an early false return.
func TestVisitOrderAndEarlyStop(t *testing.T) {
	tb := NewTable(nil)
	for i := 0; i < 5; i++ {
		tb.Spawn(testCred(1000), 0, "p")
	}
	var pids []ids.PID
	tb.Visit(func(p *Process) bool {
		pids = append(pids, p.PID)
		return len(pids) < 3
	})
	if len(pids) != 3 {
		t.Fatalf("Visit visited %d, want early stop at 3", len(pids))
	}
	for i := 1; i < len(pids); i++ {
		if pids[i-1] >= pids[i] {
			t.Errorf("Visit order not PID-sorted: %v", pids)
		}
	}
}

// TestVisitReentrancy: Visit holds no lock while the callback runs,
// so the callback may call back into the table.
func TestVisitReentrancy(t *testing.T) {
	tb := NewTable(nil)
	tb.Spawn(testCred(1000), 0, "a")
	tb.Spawn(testCred(2000), 0, "b")
	n := 0
	tb.Visit(func(p *Process) bool {
		if _, err := tb.Get(p.PID); err != nil {
			t.Errorf("Get(%d) inside Visit: %v", p.PID, err)
		}
		n++
		return true
	})
	if n != 2 {
		t.Errorf("visited %d, want 2", n)
	}
}

// TestSnapshotRaceStress hammers the table with concurrent writers
// (Spawn/Exit/KillJob/SetRSS) and snapshot readers (All/Visit/ByUser/
// Get). Run under -race this proves readers share immutable snapshots
// without torn reads; without -race it still asserts snapshots are
// internally consistent (PID-sorted, no duplicates).
func TestSnapshotRaceStress(t *testing.T) {
	tb := NewTable(nil)
	const writers, readers, iters = 4, 4, 300

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(uid ids.UID) {
			defer wg.Done()
			var mine []ids.PID
			for i := 0; i < iters; i++ {
				switch i % 4 {
				case 0, 1:
					p := tb.Spawn(testCred(uid), 0, "w")
					_ = tb.SetJob(p.PID, int(uid))
					mine = append(mine, p.PID)
				case 2:
					if len(mine) > 0 {
						_ = tb.SetRSS(mine[len(mine)-1], int64(i))
						_ = tb.Exit(mine[len(mine)-1])
						mine = mine[:len(mine)-1]
					}
				case 3:
					tb.KillJob(int(uid))
					mine = mine[:0]
				}
			}
		}(ids.UID(1000 + w))
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(uid ids.UID) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				snap := tb.All()
				for k := 1; k < len(snap); k++ {
					if snap[k-1].PID >= snap[k].PID {
						t.Errorf("snapshot not sorted/unique at %d", k)
						return
					}
				}
				tb.Visit(func(p *Process) bool {
					_ = p.Cmdline // immutable read
					return true
				})
				for _, p := range tb.ByUser(uid) {
					if p.Cred.UID != uid {
						t.Errorf("ByUser(%d) returned uid %d", uid, p.Cred.UID)
						return
					}
					_, _ = tb.Get(p.PID) // may have exited; both outcomes fine
				}
			}
		}(ids.UID(1000 + r%writers))
	}
	wg.Wait()
}

// TestSpawnTaskMatchesSpawnSetJobSetRSS: SpawnTask publishes, in one
// entry, exactly the entry Spawn followed by SetJob and SetRSS leaves
// behind — same PIDs on twin tables, deep-equal entries — and, like
// every mutation, it invalidates the cached snapshot.
func TestSpawnTaskMatchesSpawnSetJobSetRSS(t *testing.T) {
	clock := func() int64 { return 17 }
	three, one := NewTable(clock), NewTable(clock)
	three.SpawnDaemon("sshd")
	one.SpawnDaemon("sshd")
	cr := testCred(1000)
	for k := 0; k < 3; k++ {
		p := three.Spawn(cr, 1, "slurmstepd", "train.py", "--epochs=3")
		if err := three.SetJob(p.PID, 40+k); err != nil {
			t.Fatal(err)
		}
		if err := three.SetRSS(p.PID, int64(k+1)<<20); err != nil {
			t.Fatal(err)
		}

		before := one.All()
		gen := one.Generation()
		pid := one.SpawnTask(cr, 40+k, int64(k+1)<<20, "slurmstepd", "train.py", "--epochs=3")
		if pid != p.PID {
			t.Fatalf("SpawnTask PID %d, Spawn PID %d", pid, p.PID)
		}
		if one.Generation() == gen {
			t.Fatalf("SpawnTask did not bump the generation")
		}
		after := one.All()
		if len(after) != len(before)+1 {
			t.Fatalf("snapshot after SpawnTask has %d entries, want %d", len(after), len(before)+1)
		}
		got, ok := one.Lookup(pid)
		if !ok {
			t.Fatalf("SpawnTask entry %d missing", pid)
		}
		want, _ := three.Lookup(pid)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("SpawnTask entry %+v, Spawn+SetJob+SetRSS entry %+v", got, want)
		}
	}
}
