package sched

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/simos"
)

// taskLog records every task process the scheduler starts, per node,
// through a prolog hook: the hook runs right after the task is
// spawned, so the job's process on the node is already published.
type taskLog map[string][][3]int64 // node → (PID, job ID, RSS)

func (tl taskLog) hook(j *Job, n *simos.Node) error {
	n.Procs.Visit(func(p *simos.Process) bool {
		if p.JobID == j.ID {
			tl[n.Name] = append(tl[n.Name], [3]int64{int64(p.PID), int64(p.JobID), p.RSS})
		}
		return true
	})
	return nil
}

// scheduleHash is an FNV-64 digest of a drained schedule: every
// accounting record's (JobID, State, Start, End, NodeList) in record
// order, then every node's task processes in PID order. Equal hashes
// mean equal schedules down to the per-node PIDs.
func scheduleHash(s *Scheduler, tl taskLog) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, r := range s.Sacct(ids.RootCred()) {
		put(int64(r.JobID))
		put(int64(r.State))
		put(r.Start)
		put(r.End)
		put(int64(len(r.NodeList)))
		for _, n := range r.NodeList {
			h.Write([]byte(n))
			h.Write([]byte{0})
		}
	}
	names := make([]string, 0, len(tl))
	for n := range tl {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		h.Write([]byte(n))
		h.Write([]byte{0})
		tasks := tl[n]
		slices.SortFunc(tasks, func(a, b [3]int64) int { return int(a[0] - b[0]) })
		for _, tk := range tasks {
			put(tk[0])
			put(tk[1])
			put(tk[2])
		}
	}
	return h.Sum64()
}

// pinDrain is one pinned schedule: new builds the cluster and run
// queues the workload and drains it, so the hash covers the whole run.
type pinDrain struct {
	name string
	new  func() *Scheduler
	run  func(t *testing.T, s *Scheduler)
}

func submitAll(t *testing.T, s *Scheduler, jobs []benchJob) {
	t.Helper()
	for _, j := range jobs {
		if _, err := s.Submit(j.cred, j.spec); err != nil {
			t.Fatal(err)
		}
	}
}

// pinDrains are the benchmark drain shapes plus two scripted drains
// (see scriptedDrain).
func pinDrains() []pinDrain {
	var out []pinDrain
	deep := benchJobs(12, 200, 8, 16)
	for _, pol := range []SharingPolicy{PolicyShared, PolicyExclusive, PolicyUserWholeNode} {
		pol := pol
		out = append(out, pinDrain{
			name: "deep-queue/" + pol.String(),
			new:  func() *Scheduler { return New(Config{Policy: pol}, computeNodes(8, 16, 1<<30), 0) },
			run: func(t *testing.T, s *Scheduler) {
				submitAll(t, s, deep)
				s.RunAll(1 << 20)
			},
		})
	}
	wide := benchJobs(4000, 1, 16, 16)
	for _, pol := range []SharingPolicy{PolicyShared, PolicyUserWholeNode} {
		pol := pol
		out = append(out, pinDrain{
			name: "wide-cluster/" + pol.String(),
			new:  func() *Scheduler { return New(Config{Policy: pol}, computeNodes(1000, 16, 1<<30), 0) },
			run: func(t *testing.T, s *Scheduler) {
				submitAll(t, s, wide)
				s.RunAll(1 << 20)
			},
		})
	}
	wn := PolicyUserWholeNode
	out = append(out,
		scriptedDrain("scripted/shared+wholenode-partition", PolicyShared, &wn),
		scriptedDrain("scripted/wholenode+partition", PolicyUserWholeNode, nil))
	return out
}

// scriptedDrain exercises what the benchmark drains do not: a
// partition "wn" over the w* nodes (with the given policy override, if
// any), a login node in front of the compute nodes, a node crash and
// restore, and cancels of a pending and of a running job.
func scriptedDrain(name string, policy SharingPolicy, override *SharingPolicy) pinDrain {
	return pinDrain{
		name: name,
		new: func() *Scheduler {
			nodes := []*simos.Node{simos.NewNode("login", simos.Login, 8, 1<<30, nil)}
			for i := 0; i < 6; i++ {
				nodes = append(nodes, simos.NewNode(fmt.Sprintf("c%02d", i), simos.Compute, 8, 1<<30, nil))
			}
			for i := 0; i < 4; i++ {
				nodes = append(nodes, simos.NewNode(fmt.Sprintf("w%02d", i), simos.Compute, 8, 1<<30, nil))
			}
			return New(Config{Policy: policy}, nodes, 0)
		},
		run: func(t *testing.T, s *Scheduler) {
			if err := s.AddPartition(Partition{Name: "wn", NodePrefix: "w", PolicyOverride: override}); err != nil {
				t.Fatal(err)
			}
			rng := metrics.NewRNG(5)
			for i := 0; i < 120; i++ {
				sp := JobSpec{
					Name: "pin", Command: "solve", Cores: 1 + rng.Intn(8),
					MemB: 1 << 20, Duration: 1 + int64(rng.Intn(6)),
				}
				if rng.Intn(2) == 0 {
					sp.Partition = "wn"
				}
				if _, err := s.Submit(cred(ids.UID(1000+rng.Intn(5))), sp); err != nil {
					t.Fatal(err)
				}
			}
			crashed := s.nodes[3].node
			for s.Now() < 12 {
				s.Step()
				switch s.Now() {
				case 2: // cancel the newest pending job
					q := s.Squeue(ids.RootCred())
					for i := len(q) - 1; i >= 0; i-- {
						if q[i].State == Pending {
							if err := s.Cancel(ids.RootCred(), q[i].ID); err != nil {
								t.Fatal(err)
							}
							break
						}
					}
				case 4: // cancel the oldest running job
					for _, j := range s.Squeue(ids.RootCred()) {
						if j.State == Running {
							if err := s.Cancel(ids.RootCred(), j.ID); err != nil {
								t.Fatal(err)
							}
							break
						}
					}
				case 5:
					crashed.Crash()
				case 9:
					crashed.Restore()
				}
			}
			s.RunAll(1 << 20)
		},
	}
}

// TestSchedulePinned pins the exact schedules of the pinDrains: the
// hashes were recorded before the per-user pass, the first-fit cursors,
// the per-tick running-index compaction and SpawnTask existed, and
// none of them may change a single start, end, placement or task PID.
// Probes and Visits pin the cost of the passes and placement scans as
// it stands, so a change in scheduler work shows up here even when the
// schedule does not move.
func TestSchedulePinned(t *testing.T) {
	want := map[string]struct {
		hash           uint64
		probes, visits int64
	}{
		"deep-queue/shared":                   {0xbfff921132e7433a, 14228, 7956},
		"deep-queue/exclusive":                {0xfb9b7c53218a05f4, 2400, 5881},
		"deep-queue/user-wholenode":           {0x73668be1a53b9baa, 112435, 8374},
		"wide-cluster/shared":                 {0xbca0c5c04c50d92d, 4264, 29366},
		"wide-cluster/user-wholenode":         {0xff41743ad96ed31f, 4000, 32642},
		"scripted/shared+wholenode-partition": {0x69add3d09b40891c, 1059, 1168},
		"scripted/wholenode+partition":        {0xa850a302e25799b6, 1059, 1533},
	}
	for _, d := range pinDrains() {
		t.Run(d.name, func(t *testing.T) {
			s := d.new()
			tl := taskLog{}
			s.AddProlog(tl.hook)
			d.run(t, s)
			if n := s.PendingCount(); n != 0 {
				t.Fatalf("%d jobs still pending after the drain", n)
			}
			w := want[d.name]
			if got := scheduleHash(s, tl); got != w.hash {
				t.Errorf("schedule hash %#x, want %#x", got, w.hash)
			}
			if got := s.Probes(); got != w.probes {
				t.Errorf("Probes() = %d, want %d", got, w.probes)
			}
			if got := s.Visits(); got != w.visits {
				t.Errorf("Visits() = %d, want %d", got, w.visits)
			}
		})
	}
}
