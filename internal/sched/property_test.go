package sched

import (
	"fmt"
	"testing"

	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/simos"
)

// feasibleNow is the brute-force placement test: a scan of every node
// with none of fit's shortcuts (no capacity probe, no cursors), asking
// whether j could start right now. Caller holds s.mu.
func feasibleNow(s *Scheduler, j *Job) bool {
	part := s.partitionOf(j)
	policy := s.effectivePolicy(j)
	have := 0
	for i, ns := range s.nodes {
		if ns.node.Kind != simos.Compute || ns.node.Down() || !inPartition(part, i) {
			continue
		}
		if !s.nodeEligible(ns, j, policy) {
			continue
		}
		if ns.freeCores() > 0 && ns.freeMem() >= j.Spec.MemB && ns.freeGPUs() >= j.Spec.GPUs {
			have += ns.freeCores()
		}
	}
	return have >= j.Spec.Cores
}

// checkStepInvariants asserts what must hold whenever a Step returns:
// no pending job is placeable (the pass, however it pruned, missed
// nothing), the first-fit cursor invariants, the running index holds
// exactly the running jobs in ID order, and the per-user chains thread
// exactly the pending queue in submit order.
func checkStepInvariants(t *testing.T, s *Scheduler, when string) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	for e := s.queue.Front(); e != nil; e = e.Next() {
		if j := e.Value.(*Job); feasibleNow(s, j) {
			t.Fatalf("%s: pending job %d (user %d, %d cores, policy %v) is placeable", when, j.ID, j.User, j.Spec.Cores, s.effectivePolicy(j))
		}
	}
	for i, ns := range s.nodes {
		if ns.node.Kind != simos.Compute {
			continue
		}
		if i < s.freeFrom && ns.freeCores() > 0 {
			t.Fatalf("%s: node %d below freeFrom %d has %d free cores", when, i, s.freeFrom, ns.freeCores())
		}
		if i < s.emptyFrom && ns.empty() {
			t.Fatalf("%s: node %d below emptyFrom %d is empty", when, i, s.emptyFrom)
		}
	}
	running := 0
	for _, j := range s.jobs {
		if j.State == Running {
			running++
		}
	}
	if len(s.runningSorted) != running {
		t.Fatalf("%s: running index holds %d jobs, %d are running", when, len(s.runningSorted), running)
	}
	for i, j := range s.runningSorted {
		if j.State != Running || (i > 0 && s.runningSorted[i-1].ID >= j.ID) {
			t.Fatalf("%s: running index entry %d (job %d, %v) out of order or not running", when, i, j.ID, j.State)
		}
	}
	chained := 0
	for u, uq := range s.userQueues {
		var prev *Job
		for j := uq.head; j != nil; prev, j = j, j.unext {
			if j.User != u || j.State != Pending || j.uprev != prev || (prev != nil && prev.ID >= j.ID) {
				t.Fatalf("%s: user %d chain broken at job %d", when, u, j.ID)
			}
			if _, ok := s.queueElem[j.ID]; !ok {
				t.Fatalf("%s: job %d chained for user %d but not queued", when, j.ID, u)
			}
			chained++
		}
		if uq.tail != prev || prev == nil {
			t.Fatalf("%s: user %d chain tail mismatch", when, u)
		}
	}
	if chained != s.queue.Len() {
		t.Fatalf("%s: user chains hold %d jobs, queue %d", when, chained, s.queue.Len())
	}
}

// TestQuickStepInvariants drives random clusters (all three policies,
// partitions with and without overrides, login nodes between compute
// nodes, GPUs, memory-hungry and OOM-faulting jobs) through random
// submits, cancels, crashes and restores, checking the step invariants
// after every Step.
func TestQuickStepInvariants(t *testing.T) {
	policies := []SharingPolicy{PolicyShared, PolicyExclusive, PolicyUserWholeNode}
	for seed := uint64(1); seed <= 150; seed++ {
		rng := metrics.NewRNG(seed)
		gpus := rng.Intn(3)
		var nodes []*simos.Node
		for i, n := 0, 2+rng.Intn(10); i < n; i++ {
			kind, prefix := simos.Compute, "c"
			switch rng.Intn(6) {
			case 0:
				kind, prefix = simos.Login, "login"
			case 1, 2:
				prefix = "w"
			}
			nodes = append(nodes, simos.NewNode(fmt.Sprintf("%s%02d", prefix, i), kind, 1+rng.Intn(8), 1<<(10+rng.Intn(3)), nil))
		}
		nodes = append(nodes, simos.NewNode("c99", simos.Compute, 8, 1<<12, nil))
		s := New(Config{Policy: policies[rng.Intn(3)]}, nodes, gpus)
		var parts []string
		if rng.Intn(2) == 0 && s.AddPartition(Partition{Name: "wn", NodePrefix: "w"}) == nil {
			if rng.Intn(2) == 0 {
				pol := policies[rng.Intn(3)]
				_ = s.AddPartition(Partition{Name: "wn", NodePrefix: "w", PolicyOverride: &pol})
			}
			parts = append(parts, "wn")
		}
		var submitted []int
		for step := 0; step < 60; step++ {
			for k := rng.Intn(4); k > 0; k-- {
				sp := JobSpec{
					Name: "q", Command: "x", Cores: 1 + rng.Intn(10),
					MemB: 1 << (6 + rng.Intn(6)), Duration: 1 + int64(rng.Intn(8)),
				}
				if gpus > 0 && rng.Intn(4) == 0 {
					sp.GPUs = 1 + rng.Intn(gpus)
				}
				if rng.Intn(15) == 0 {
					sp.ActualMemB = 1 << 13 // exceeds every node: OOM crash
				}
				if len(parts) > 0 && rng.Intn(3) == 0 {
					sp.Partition = parts[0]
				}
				if j, err := s.Submit(cred(ids.UID(1000+rng.Intn(5))), sp); err == nil {
					submitted = append(submitted, j.ID)
				}
			}
			if len(submitted) > 0 && rng.Intn(8) == 0 {
				_ = s.Cancel(ids.RootCred(), submitted[rng.Intn(len(submitted))])
			}
			if rng.Intn(12) == 0 {
				n := nodes[rng.Intn(len(nodes))]
				if n.Down() {
					n.Restore()
				} else {
					n.Crash()
				}
			}
			s.Step()
			checkStepInvariants(t, s, fmt.Sprintf("seed %d step %d", seed, step))
		}
	}
}
