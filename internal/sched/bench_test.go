package sched

import (
	"testing"

	"repro/internal/ids"
	"repro/internal/metrics"
)

// benchJob is one submission of a benchmark drain.
type benchJob struct {
	cred ids.Credential
	spec JobSpec
}

// benchJobs draws users × perUser jobs of 1..maxCores cores and
// 1..maxDur ticks, interleaved round-robin over users the way the
// workload mixes submit them. The draws are seeded, so every iteration
// and every commit drains the same queue.
func benchJobs(users, perUser, maxCores, maxDur int) []benchJob {
	rng := metrics.NewRNG(1)
	out := make([]benchJob, 0, users*perUser)
	for i := 0; i < perUser; i++ {
		for u := 0; u < users; u++ {
			out = append(out, benchJob{
				cred: cred(ids.UID(1000 + u)),
				spec: JobSpec{
					Name:     "bench",
					Command:  "simulate",
					Cores:    1 + rng.Intn(maxCores),
					MemB:     1 << 20,
					Duration: 1 + int64(rng.Intn(maxDur)),
				},
			})
		}
	}
	return out
}

// benchRunAll times RunAll draining jobs on s, resetting and
// resubmitting outside the timer each iteration, and reports the
// deterministic work counters per drain: real ticks stepped, pending
// jobs the scheduling passes examined and nodes the placement scans
// examined.
func benchRunAll(b *testing.B, s *Scheduler, jobs []benchJob) {
	b.Helper()
	b.ReportAllocs()
	var steps, probes, visits int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s.Reset()
		for _, j := range jobs {
			if _, err := s.Submit(j.cred, j.spec); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		s.RunAll(1 << 20)
		st, _ := s.Stats()
		steps += st
		probes += s.Probes()
		visits += s.Visits()
	}
	b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
	b.ReportMetric(float64(probes)/float64(b.N), "probes/op")
	b.ReportMetric(float64(visits)/float64(b.N), "visits/op")
}

// BenchmarkRunAllDeepQueue drains a deep queue on a narrow cluster,
// 8×16-core nodes and 12 users × 200 jobs, under each sharing policy:
// the cluster is full for most ticks, so the cost is in the passes
// that follow each completion.
func BenchmarkRunAllDeepQueue(b *testing.B) {
	jobs := benchJobs(12, 200, 8, 16)
	for _, pol := range []SharingPolicy{PolicyShared, PolicyExclusive, PolicyUserWholeNode} {
		b.Run(pol.String(), func(b *testing.B) {
			benchRunAll(b, New(Config{Policy: pol}, computeNodes(8, 16, 1<<30), 0), jobs)
		})
	}
}

// BenchmarkRunAllWideCluster drains one job for each of 4000 users on
// 1000×16-core nodes under user-whole-node: a few wide ticks whose
// first-fit scans visit many nodes.
func BenchmarkRunAllWideCluster(b *testing.B) {
	s := New(Config{Policy: PolicyUserWholeNode}, computeNodes(1000, 16, 1<<30), 0)
	benchRunAll(b, s, benchJobs(4000, 1, 16, 16))
}
