package simos

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/ids"
)

func testCred(uid ids.UID) ids.Credential {
	return ids.Credential{UID: uid, EGID: ids.GID(uid), Groups: []ids.GID{ids.GID(uid)}}
}

func TestSpawnAssignsSequentialPIDs(t *testing.T) {
	tb := NewTable(nil)
	p1 := tb.Spawn(testCred(1000), 0, "a.out")
	p2 := tb.Spawn(testCred(1000), p1.PID, "b.out", "--flag")
	if p2.PID <= p1.PID {
		t.Errorf("PIDs not increasing: %d then %d", p1.PID, p2.PID)
	}
	if p2.PPID != p1.PID {
		t.Errorf("PPID = %d, want %d", p2.PPID, p1.PID)
	}
	if got := p2.Cmdline; len(got) != 2 || got[1] != "--flag" {
		t.Errorf("Cmdline = %v", got)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	tb := NewTable(nil)
	p := tb.Spawn(testCred(1000), 0, "a.out", "secret-token")
	got, err := tb.Get(p.PID)
	if err != nil {
		t.Fatal(err)
	}
	got.Cmdline[1] = "tampered"
	again, _ := tb.Get(p.PID)
	if again.Cmdline[1] != "secret-token" {
		t.Errorf("Get leaked internal state: %v", again.Cmdline)
	}
}

func TestKillPermissions(t *testing.T) {
	tb := NewTable(nil)
	victim := tb.Spawn(testCred(1000), 0, "target")
	if err := tb.Kill(testCred(2000), victim.PID); !errors.Is(err, ErrPermission) {
		t.Errorf("cross-user kill err = %v, want ErrPermission", err)
	}
	if err := tb.Kill(testCred(1000), victim.PID); err != nil {
		t.Errorf("self kill: %v", err)
	}
	victim2 := tb.Spawn(testCred(1000), 0, "target2")
	if err := tb.Kill(ids.RootCred(), victim2.PID); err != nil {
		t.Errorf("root kill: %v", err)
	}
}

func TestKillJobAndKillUser(t *testing.T) {
	tb := NewTable(nil)
	for i := 0; i < 5; i++ {
		p := tb.Spawn(testCred(1000), 0, "rank")
		if err := tb.SetJob(p.PID, 42); err != nil {
			t.Fatal(err)
		}
	}
	other := tb.Spawn(testCred(1000), 0, "shell") // no job
	if n := tb.KillJob(42); n != 5 {
		t.Errorf("KillJob killed %d, want 5", n)
	}
	if _, err := tb.Get(other.PID); err != nil {
		t.Errorf("KillJob killed a non-member: %v", err)
	}
	if n := tb.KillUser(1000); n != 1 {
		t.Errorf("KillUser killed %d, want 1", n)
	}
}

func TestKillJobZeroIsNoop(t *testing.T) {
	tb := NewTable(nil)
	tb.Spawn(testCred(1000), 0, "shell")
	if n := tb.KillJob(0); n != 0 {
		t.Errorf("KillJob(0) killed %d daemon-less procs, want 0", n)
	}
}

func TestByUserFiltersAndSorts(t *testing.T) {
	tb := NewTable(nil)
	tb.Spawn(testCred(1000), 0, "a")
	tb.Spawn(testCred(2000), 0, "b")
	tb.Spawn(testCred(1000), 0, "c")
	got := tb.ByUser(1000)
	if len(got) != 2 {
		t.Fatalf("ByUser len = %d, want 2", len(got))
	}
	if got[0].PID >= got[1].PID {
		t.Errorf("ByUser not sorted")
	}
}

func TestTotalRSSAndOOM(t *testing.T) {
	n := NewNode("c1", Compute, 8, 1000, nil)
	p := n.Procs.Spawn(testCred(1000), 0, "hog")
	if err := n.Procs.SetRSS(p.PID, 900); err != nil {
		t.Fatal(err)
	}
	if crashed, _ := n.CheckOOM(); crashed {
		t.Fatalf("node crashed below capacity")
	}
	if err := n.Procs.SetRSS(p.PID, 1100); err != nil {
		t.Fatal(err)
	}
	crashed, killed := n.CheckOOM()
	if !crashed {
		t.Fatalf("node did not crash above capacity")
	}
	if killed == 0 {
		t.Errorf("crash killed nothing")
	}
	if !n.Down() {
		t.Errorf("node not marked down")
	}
	if _, err := n.Login(testCred(1000)); !errors.Is(err, ErrNodeDown) {
		t.Errorf("login to down node err = %v", err)
	}
	n.Restore()
	if n.Down() {
		t.Errorf("Restore left node down")
	}
	if _, err := n.Login(testCred(1000)); err != nil {
		t.Errorf("login after restore: %v", err)
	}
}

func TestNodeStartsWithDaemons(t *testing.T) {
	n := NewNode("login1", Login, 16, 1<<30, nil)
	all := n.Procs.All()
	if len(all) != 3 {
		t.Fatalf("fresh node has %d procs, want 3 daemons", len(all))
	}
	for _, p := range all {
		if !p.Daemon || !p.Cred.IsRoot() {
			t.Errorf("daemon %s not root-owned daemon", p.Comm)
		}
	}
}

func TestPAMStackDeniesAndAllows(t *testing.T) {
	n := NewNode("c1", Compute, 8, 1<<30, nil)
	denyAll := func(_ *Node, uid ids.UID) error {
		if uid != 1000 {
			return fmt.Errorf("uid %d has no job here", uid)
		}
		return nil
	}
	n.AddPAMHook(denyAll)
	if _, err := n.Login(testCred(2000)); !errors.Is(err, ErrAccessDenied) {
		t.Errorf("denied login err = %v, want ErrAccessDenied", err)
	}
	sh, err := n.Login(testCred(1000))
	if err != nil {
		t.Fatalf("allowed login: %v", err)
	}
	if sh.Comm != "bash" {
		t.Errorf("login spawned %q", sh.Comm)
	}
	n.ClearPAMHooks()
	if _, err := n.Login(testCred(2000)); err != nil {
		t.Errorf("login after ClearPAMHooks: %v", err)
	}
}

func TestDevPermissions(t *testing.T) {
	n := NewNode("g1", Compute, 8, 1<<30, nil)
	n.AddDev("/dev/nvidia0", ids.Root, ids.RootGroup, 0o000)
	alice := testCred(1000)
	// Unassigned GPU: invisible to users.
	if got := n.VisibleDevs(alice); len(got) != 0 {
		t.Errorf("unassigned GPU visible: %v", got)
	}
	// Root always opens.
	if _, err := n.OpenDev(ids.RootCred(), "/dev/nvidia0"); err != nil {
		t.Errorf("root open: %v", err)
	}
	// Assign to alice's private group.
	if err := n.ChownDev(ids.RootCred(), "/dev/nvidia0", ids.Root, alice.EGID, 0o660); err != nil {
		t.Fatal(err)
	}
	if _, err := n.OpenDev(alice, "/dev/nvidia0"); err != nil {
		t.Errorf("assigned user open: %v", err)
	}
	bob := testCred(2000)
	if _, err := n.OpenDev(bob, "/dev/nvidia0"); !errors.Is(err, ErrPermission) {
		t.Errorf("stranger open err = %v, want ErrPermission", err)
	}
	// Non-root cannot chown.
	if err := n.ChownDev(bob, "/dev/nvidia0", bob.UID, bob.EGID, 0o666); !errors.Is(err, ErrPermission) {
		t.Errorf("non-root chown err = %v, want ErrPermission", err)
	}
	// Owner permission beats group: owner with 0600.
	n.AddDev("/dev/nvidia1", 2000, 999, 0o600)
	if _, err := n.OpenDev(bob, "/dev/nvidia1"); err != nil {
		t.Errorf("owner open: %v", err)
	}
}

func TestOpenDevMissing(t *testing.T) {
	n := NewNode("c1", Compute, 1, 1, nil)
	if _, err := n.OpenDev(ids.RootCred(), "/dev/none"); !errors.Is(err, ErrNoSuchDev) {
		t.Errorf("err = %v, want ErrNoSuchDev", err)
	}
	if err := n.ChownDev(ids.RootCred(), "/dev/none", 0, 0, 0); !errors.Is(err, ErrNoSuchDev) {
		t.Errorf("chown err = %v, want ErrNoSuchDev", err)
	}
}

func TestConcurrentSpawnUniquePIDs(t *testing.T) {
	tb := NewTable(nil)
	const workers, per = 8, 50
	var wg sync.WaitGroup
	pids := make(chan ids.PID, workers*per)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(uid ids.UID) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				pids <- tb.Spawn(testCred(uid), 0, "w").PID
			}
		}(ids.UID(1000 + w))
	}
	wg.Wait()
	close(pids)
	seen := make(map[ids.PID]bool)
	for pid := range pids {
		if seen[pid] {
			t.Fatalf("duplicate PID %d", pid)
		}
		seen[pid] = true
	}
	if tb.Len() != workers*per {
		t.Errorf("table len = %d, want %d", tb.Len(), workers*per)
	}
}

// Property: after any sequence of spawns and kills, All() is sorted by
// PID and contains no dead processes.
func TestQuickTableConsistency(t *testing.T) {
	f := func(ops []bool) bool {
		tb := NewTable(nil)
		var live []ids.PID
		for _, spawn := range ops {
			if spawn || len(live) == 0 {
				p := tb.Spawn(testCred(1000), 0, "p")
				live = append(live, p.PID)
			} else {
				victim := live[len(live)-1]
				live = live[:len(live)-1]
				if err := tb.Exit(victim); err != nil {
					return false
				}
			}
		}
		all := tb.All()
		if len(all) != len(live) {
			return false
		}
		for i := 1; i < len(all); i++ {
			if all[i-1].PID >= all[i].PID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestProcStateString(t *testing.T) {
	cases := map[ProcState]string{StateRunning: "R", StateSleeping: "S", StateZombie: "Z", StateDead: "X"}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestNodeKindString(t *testing.T) {
	cases := map[NodeKind]string{Compute: "compute", Login: "login", DataTransfer: "dtn", InteractiveDebug: "debug", NodeKind(99): "unknown"}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("kind %d = %q, want %q", k, k.String(), want)
		}
	}
}

// TestNodeLivenessConcurrent: Down reads the crashed flag without the
// node lock, so crashes and restores racing logins and liveness reads
// must stay data-race free (run under -race) and leave the node in the
// state the last transition set.
func TestNodeLivenessConcurrent(t *testing.T) {
	n := NewNode("c00", Compute, 4, 1<<30, nil)
	const rounds = 200
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			n.Crash()
			n.Restore()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			_ = n.Down()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := n.Login(testCred(1000)); err != nil && !errors.Is(err, ErrNodeDown) {
				t.Errorf("login: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if n.Down() {
		t.Fatal("node still down after its last Restore")
	}
	n.Crash()
	if !n.Down() {
		t.Fatal("node up after Crash")
	}
	n.Reset()
	if n.Down() {
		t.Fatal("node down after Reset")
	}
}
