// Package sched implements the Slurm-like batch scheduler substrate
// plus the paper's scheduler separation measures (§IV-B):
//
//   - PrivateData: restrict globally visible scheduler information so
//     users only see their own jobs and accounting records;
//   - node-sharing policies: the default shared policy, per-job
//     exclusive allocation, and the paper's user-based whole-node
//     policy where a node only ever runs jobs of a single user;
//   - pam_slurm: ssh to a compute node is permitted only while the
//     user has a job running there;
//   - prolog/epilog hooks, used by the GPU substrate to assign device
//     permissions and clear accelerator memory between users.
//
// Time is logical: the scheduler advances one tick per Step call, so
// experiments are deterministic.
package sched

import (
	"fmt"

	"repro/internal/ids"
)

// JobState is a job's lifecycle state.
type JobState int

// Job states.
const (
	Pending JobState = iota
	Running
	Completed
	Failed // killed by a node crash or OOM
	Cancelled
)

func (s JobState) String() string {
	switch s {
	case Pending:
		return "PD"
	case Running:
		return "R"
	case Completed:
		return "CD"
	case Failed:
		return "F"
	case Cancelled:
		return "CA"
	default:
		return "?"
	}
}

// SharingPolicy selects how compute nodes are shared between jobs.
type SharingPolicy int

// Node-sharing policies (paper §IV-B).
const (
	// PolicyShared is the throughput-oriented default: jobs from any
	// mix of users may share a node.
	PolicyShared SharingPolicy = iota
	// PolicyExclusive allocates whole nodes per job: only tasks of
	// one job run on a node, wasting the remainder for small jobs.
	PolicyExclusive
	// PolicyUserWholeNode is the paper's policy: whole nodes are
	// allocated per *user* — multiple jobs may pack a node as long as
	// every job on it belongs to the same user.
	PolicyUserWholeNode
)

func (p SharingPolicy) String() string {
	switch p {
	case PolicyShared:
		return "shared"
	case PolicyExclusive:
		return "exclusive"
	case PolicyUserWholeNode:
		return "user-wholenode"
	default:
		return "?"
	}
}

// ParsePolicy is String's inverse, for CLIs and declarative scenario
// files that carry policies as text.
func ParsePolicy(s string) (SharingPolicy, error) {
	switch s {
	case "shared":
		return PolicyShared, nil
	case "exclusive":
		return PolicyExclusive, nil
	case "user-wholenode":
		return PolicyUserWholeNode, nil
	}
	return 0, fmt.Errorf("sched: unknown sharing policy %q (shared, exclusive, user-wholenode)", s)
}

// JobSpec is what a user submits.
type JobSpec struct {
	Name    string
	Command string // full command line; may embed secrets (E2)
	WorkDir string
	// Partition targets a registered partition; empty means the
	// default placement over all compute nodes.
	Partition string
	Cores     int   // total cores, may span nodes
	MemB      int64 // memory per allocated node share
	GPUs      int   // GPUs per node
	// Duration is how many ticks the job runs once started.
	Duration int64
	// ActualMemB, when larger than MemB, models a job that exceeds
	// its request (OOM blast-radius experiment E4). Zero means
	// "behaves" (uses MemB).
	ActualMemB int64
}

// Job is a scheduled unit of work.
type Job struct {
	ID     int
	User   ids.UID
	Cred   ids.Credential
	Spec   JobSpec
	State  JobState
	Submit int64
	Start  int64
	End    int64
	Nodes  []string       // node names allocated
	Tasks  map[string]int // node -> cores allocated there
	// ArrayID/ArrayIndex identify sbatch-style array membership
	// (ArrayID 0 = not part of an array).
	ArrayID    int
	ArrayIndex int
	// uprev/unext thread the owner's pending jobs in submit order (the
	// scheduler's per-user queue); nil once the job leaves the queue.
	uprev, unext *Job
}

// Clone returns a copy safe to hand to observers.
func (j *Job) Clone() *Job {
	nj := *j
	nj.uprev, nj.unext = nil, nil
	nj.Cred = j.Cred.Clone()
	nj.Nodes = append([]string(nil), j.Nodes...)
	nj.Tasks = make(map[string]int, len(j.Tasks))
	for k, v := range j.Tasks {
		nj.Tasks[k] = v
	}
	return &nj
}

// Redacted returns the privacy-preserving view of a foreign job under
// PrivateData: the slot is visible as occupied, but username, name,
// command and paths are hidden (paper §IV-B: "many job properties
// could contain private information including username, jobname,
// command, working directory path").
func (j *Job) Redacted() *Job {
	return &Job{
		ID:    j.ID,
		User:  ids.NoUID,
		State: j.State,
		Spec:  JobSpec{Name: "(private)", Cores: j.Spec.Cores},
	}
}

func (j *Job) String() string {
	return fmt.Sprintf("job %d user %d %s cores=%d state=%s", j.ID, j.User, j.Spec.Name, j.Spec.Cores, j.State)
}

// AccountingRecord is one sacct row.
type AccountingRecord struct {
	JobID     int
	User      ids.UID
	Name      string
	State     JobState
	Submit    int64
	Start     int64
	End       int64
	CoreTicks int64 // cores × runtime
	NodeList  []string
}
