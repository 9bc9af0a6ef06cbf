package sched

import (
	"fmt"
	"testing"

	"repro/internal/ids"
)

// TestStatsAccounting: steps + fastForwarded must equal the total
// logical ticks RunAll advanced, fast-forward must actually fire on
// an event-free gap, and Reset must clear both tallies — the
// invariants the observability layer's sched_* counters rely on.
func TestStatsAccounting(t *testing.T) {
	s := New(Config{Policy: PolicyShared}, computeNodes(2, 8, 1<<20), 0)
	if _, err := s.Submit(cred(1000), spec(2, 500)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(cred(1001), spec(2, 123)); err != nil {
		t.Fatal(err)
	}
	ticks := s.RunAll(100000)
	steps, ff := s.Stats()
	if steps+ff != int64(ticks) {
		t.Fatalf("steps %d + fastForwarded %d != RunAll ticks %d", steps, ff, ticks)
	}
	if steps == 0 {
		t.Fatal("no real steps counted")
	}
	if ff == 0 {
		t.Fatal("long-duration jobs with an empty queue must fast-forward, but no ticks were skipped")
	}
	s.Reset()
	if steps, ff := s.Stats(); steps != 0 || ff != 0 {
		t.Fatalf("Reset must clear stats, got steps %d ff %d", steps, ff)
	}
	// A Step loop counts every tick as a real step.
	if _, err := s.Submit(cred(1000), spec(2, 5)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		s.Step()
	}
	if steps, ff := s.Stats(); steps != 7 || ff != 0 {
		t.Fatalf("Step loop stats = (%d, %d), want (7, 0)", steps, ff)
	}
}

// TestPassStopsWhenFull: a scheduling pass stops at the job that fills
// the cluster, so the tick that places a cluster-wide blocker examines
// exactly that one job however deep the queue behind it is. The jobs
// left unvisited must then start in submit order once the blocker
// completes, with the same accounting whether the drain runs as a
// plain Step loop or through RunAll's fast-forward.
func TestPassStopsWhenFull(t *testing.T) {
	const small = 10
	for _, tc := range []struct {
		policy SharingPolicy
		// perPass is how many 1-core jobs one pass starts on the
		// emptied 2×4-core cluster: exclusive spends a node on each.
		perPass int
	}{
		{PolicyShared, 8},
		{PolicyExclusive, 2},
		{PolicyUserWholeNode, 8},
	} {
		t.Run(tc.policy.String(), func(t *testing.T) {
			build := func() *Scheduler {
				s := New(Config{Policy: tc.policy}, computeNodes(2, 4, 1<<20), 0)
				if _, err := s.Submit(cred(1000), spec(8, 5)); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < small; i++ {
					if _, err := s.Submit(cred(2000), spec(1, 3)); err != nil {
						t.Fatal(err)
					}
				}
				return s
			}
			stepped := build()
			if started := stepped.Step(); started != 1 {
				t.Fatalf("blocker tick started %d jobs, want 1", started)
			}
			if p := stepped.Probes(); p != 1 {
				t.Fatalf("blocker tick examined %d jobs, want 1", p)
			}
			// The blocker completes at tick 6; until then the queue
			// gate keeps every pass from examining anything.
			for stepped.Now() < 5 {
				stepped.Step()
			}
			if p := stepped.Probes(); p != 1 {
				t.Fatalf("saturated ticks examined %d jobs, want 0", p-1)
			}
			started := stepped.Step()
			if started != tc.perPass {
				t.Fatalf("completion tick started %d jobs, want %d", started, tc.perPass)
			}
			if p := stepped.Probes(); p != 1+int64(started) {
				t.Fatalf("completion tick examined %d jobs, want the %d it started", p-1, started)
			}
			for tick := 0; tick < 1000 && len(stepped.Squeue(ids.RootCred())) > 0; tick++ {
				stepped.Step()
			}
			recs := stepped.Sacct(ids.RootCred())
			if len(recs) != 1+small {
				t.Fatalf("%d accounting records, want %d", len(recs), 1+small)
			}
			start := map[int]int64{}
			for _, r := range recs {
				if r.State != Completed {
					t.Fatalf("job %d ended %v", r.JobID, r.State)
				}
				start[r.JobID] = r.Start
			}
			for id := 3; id <= 1+small; id++ {
				if start[id] < start[id-1] {
					t.Fatalf("job %d started at %d before job %d at %d: not submit order", id, start[id], id-1, start[id-1])
				}
			}

			drained := build()
			drained.RunAll(1000)
			if got, want := fmt.Sprintf("%+v", drained.Sacct(ids.RootCred())), fmt.Sprintf("%+v", recs); got != want {
				t.Fatalf("RunAll accounting diverged from the Step loop:\nRunAll: %s\nSteps:  %s", got, want)
			}
			if fu, su := drained.Utilization(), stepped.Utilization(); fu != su {
				t.Fatalf("utilization diverged: RunAll %v, Step loop %v", fu, su)
			}
			drained.Reset()
			if p := drained.Probes(); p != 0 {
				t.Fatalf("Reset left Probes = %d", p)
			}
		})
	}
}
