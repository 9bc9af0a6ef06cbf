package sched

import "repro/internal/simos"

// fit decides whether job j can start now under the configured
// sharing policy, writing the placement into s.scratch (node index →
// cores) on success. Caller holds s.mu.
//
// It runs in two phases. The feasibility probe checks the job's
// request against the partition scope's capacity aggregates
// (placement.go) — an unplaceable job, the common case while a
// campaign drains, is rejected in O(1) without touching a node. Only
// probe survivors pay for the placement scan: greedy first-fit in
// node order, which matches the paper's description of node-based
// scheduling for large volumes of short jobs [25] — no reservations,
// just pack what fits subject to the policy constraint. Both phases
// allocate nothing; tryStart materializes the scratch on success.
//
// The scan starts at the first-fit cursors rather than node 0: no
// compute node below s.freeFrom has a free core, and every compute
// node below s.emptyFrom holds a job, so the checks below would skip
// all of them anyway. Exclusive jobs need empty nodes, and so do
// user-whole-node jobs whose user has no free cores on its own nodes
// in the scope; those start at the later of the two cursors. The scan
// moves a cursor forward whenever it passes the node at the cursor
// and that node still fails the cursor's property.
func (s *Scheduler) fit(j *Job) bool {
	part := s.partitionOf(j)
	policy := s.effectivePolicy(j)
	scope := s.scopeFor(part)
	if !s.probe(j, scope, policy) {
		return false
	}
	start := s.freeFrom
	if policy == PolicyExclusive || (policy == PolicyUserWholeNode && scope.userFree[j.User] == 0) {
		start = max(start, s.emptyFrom)
	}
	remaining := j.Spec.Cores
	sc := &s.scratch
	sc.reset()
	for i := start; i < len(s.nodes) && remaining > 0; i++ {
		ns := s.nodes[i]
		s.visits++
		compute := ns.node.Kind == simos.Compute
		if i == s.freeFrom && (!compute || ns.freeCores() <= 0) {
			s.freeFrom++
		}
		if i == s.emptyFrom && (!compute || !ns.empty()) {
			s.emptyFrom++
		}
		if !compute || ns.node.Down() {
			continue
		}
		if !inPartition(part, i) {
			continue
		}
		if !s.nodeEligible(ns, j, policy) {
			continue
		}
		avail := ns.freeCores()
		if avail <= 0 || ns.freeMem() < j.Spec.MemB || ns.freeGPUs() < j.Spec.GPUs {
			continue
		}
		take := avail
		if take > remaining {
			take = remaining
		}
		sc.nodes = append(sc.nodes, i)
		sc.cores = append(sc.cores, take)
		remaining -= take
	}
	if remaining > 0 {
		return false
	}
	// Exclusive policy consumes whole nodes: inflate the core count so
	// nothing else fits on them.
	if policy == PolicyExclusive {
		for k, ni := range sc.nodes {
			sc.cores[k] = s.nodes[ni].freeCores()
		}
	}
	return true
}

// nodeEligible applies the policy's user constraint.
func (s *Scheduler) nodeEligible(ns *nodeState, j *Job, policy SharingPolicy) bool {
	switch policy {
	case PolicyShared:
		return true
	case PolicyExclusive:
		return ns.empty()
	case PolicyUserWholeNode:
		// A node is eligible if it is empty or every allocation on it
		// belongs to this same user (paper §IV-B: "only other jobs
		// from that same user can be scheduled on that node").
		return ns.empty() || ns.soleUser(j.User)
	default:
		return false
	}
}

// NodeUsers returns, for every compute node, the set of distinct users
// currently running on it — the invariant check for experiment E4:
// under PolicyUserWholeNode this must never exceed 1.
func (s *Scheduler) NodeUsers() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.nodes))
	for _, ns := range s.nodes {
		if ns.node.Kind == simos.Compute {
			out[ns.node.Name] = len(ns.users)
		}
	}
	return out
}

// MaxUsersPerNode returns the max over NodeUsers — 1 means perfect
// user separation on compute nodes.
func (s *Scheduler) MaxUsersPerNode() int {
	max := 0
	for _, n := range s.NodeUsers() {
		if n > max {
			max = n
		}
	}
	return max
}
