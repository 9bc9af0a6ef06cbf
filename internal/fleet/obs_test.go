package fleet

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/obs"
)

// counterValue reads one counter out of a snapshot; missing counters
// read as 0 so tests can assert absence and presence uniformly.
func counterValue(s *obs.Snapshot, name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// zeroWall strips the one legitimately nondeterministic span field so
// traces can be compared for identity.
func zeroWall(spans []obs.Span) []obs.Span {
	out := append([]obs.Span(nil), spans...)
	for i := range out {
		out[i].WallNS = 0
	}
	return out
}

// The observability hard requirement: campaign bytes are identical
// with metrics and tracing on vs off, across worker counts, pooling
// modes, and a kill-and-resume — observability reads the run, never
// perturbs it.
func TestObsNeutralByteIdentity(t *testing.T) {
	camp := smokeCampaign()
	want := runJSON(t, camp, Options{Workers: 2, Seed: 7})
	for _, workers := range []int{1, 4} {
		for _, pooling := range []bool{true, false} {
			name := fmt.Sprintf("w%d-pool%v", workers, pooling)
			t.Run(name, func(t *testing.T) {
				var traced bytes.Buffer
				got := runJSON(t, camp, Options{
					Workers:        workers,
					Seed:           7,
					DisablePooling: !pooling,
					Metrics:        obs.NewRegistry(),
					Tracer:         obs.NewTracer(&traced),
				})
				if !bytes.Equal(got, want) {
					t.Fatalf("bytes differ with observability on:\n%s\nvs\n%s", got, want)
				}
				if traced.Len() == 0 {
					t.Fatal("tracer received no spans")
				}
			})
		}
	}
	t.Run("kill-and-resume", func(t *testing.T) {
		ck := interruptedCheckpoint(t, camp, Options{Workers: 2, Seed: 7, Metrics: obs.NewRegistry()}, 2)
		var traced bytes.Buffer
		resumed := runJSON(t, camp, Options{
			Workers:    2,
			Seed:       7,
			ResumeFrom: ck,
			Metrics:    obs.NewRegistry(),
			Tracer:     obs.NewTracer(&traced),
		})
		if !bytes.Equal(resumed, want) {
			t.Fatalf("instrumented resume bytes differ from the plain uninterrupted run")
		}
	})
}

// Trace identity — everything but wall_ns — is deterministic across
// worker counts and pooling, and every executed trial is covered by
// the full canonical phase sequence.
func TestTraceDeterministicAcrossWorkers(t *testing.T) {
	camp := smokeCampaign()
	var want []obs.Span
	for _, opt := range []Options{
		{Workers: 1, Seed: 7},
		{Workers: 4, Seed: 7},
		{Workers: 4, Seed: 7, DisablePooling: true},
	} {
		var buf bytes.Buffer
		opt.Tracer = obs.NewTracer(&buf)
		res, err := Run(camp, opt)
		if err != nil {
			t.Fatal(err)
		}
		got := zeroWall(res.Spans)
		if want == nil {
			want = got
			// Phase coverage: 4 phases per trial (no attack, no
			// checkpointing in this config).
			if len(got) != 4*camp.Trials() {
				t.Fatalf("want %d spans (4 per trial), got %d", 4*camp.Trials(), len(got))
			}
			phases := []string{obs.PhaseReset, obs.PhaseMix, obs.PhaseDrain, obs.PhaseAggregate}
			for i, sp := range got {
				if sp.Phase != phases[i%4] || sp.Seq != i%4 {
					t.Fatalf("span %d out of canonical phase order: %+v", i, sp)
				}
				if sp.Phase == obs.PhaseDrain && sp.EndTick == sp.StartTick {
					t.Errorf("span %d: drain advanced no ticks: %+v", i, sp)
				}
			}
			continue
		}
		if fmt.Sprintf("%v", got) != fmt.Sprintf("%v", want) {
			t.Fatalf("trace differs across configurations:\n%v\nvs\n%v", got, want)
		}
	}
}

// A retried trial's trace shows both attempts — the panicked attempt's
// half-open phase dropped, the retry restarting its sequence — and the
// attack phase appears exactly for attacked scenarios.
func TestTraceRetriesAndAttackPhase(t *testing.T) {
	camp := smokeCampaign()
	res, err := Run(camp, Options{Workers: 1, Seed: 7, Tracer: obs.NewTracer(&bytes.Buffer{}), Faults: &FaultPlan{
		Panics: []PanicFault{{Scenario: "smoke/enhanced", Replication: 1, Point: PointSubmit}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var att1, att2 int
	for _, sp := range res.Spans {
		if sp.Scenario == "smoke/enhanced" && sp.Rep == 1 {
			switch sp.Attempt {
			case 1:
				att1++
			case 2:
				att2++
			}
		}
	}
	// Attempt 1 panics at PointSubmit: reset completed, mix half-open
	// and dropped. Attempt 2 completes all 4 phases.
	if att1 != 1 || att2 != 4 {
		t.Fatalf("retried trial spans: attempt1=%d attempt2=%d, want 1 and 4", att1, att2)
	}

	attacked := e17RedTeamCampaign()
	res, err = Run(attacked, Options{Workers: 2, Seed: 7, Tracer: obs.NewTracer(&bytes.Buffer{})})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, sp := range res.Spans {
		if sp.Phase == obs.PhaseAttack {
			n++
		}
	}
	if n == 0 {
		t.Fatal("attacked campaign traced no attack phases")
	}
}

// Checkpoint-write spans carry the write ordinal, and their count is
// deterministic: one per periodic interval plus the final write.
func TestTraceCheckpointSpans(t *testing.T) {
	camp := smokeCampaign()
	res, err := Run(camp, Options{
		Workers: 2, Seed: 7,
		CheckpointPath:  t.TempDir() + "/ck.json",
		CheckpointEvery: 1,
		Tracer:          obs.NewTracer(&bytes.Buffer{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	var cks []obs.Span
	for _, sp := range res.Spans {
		if sp.Phase == obs.PhaseCheckpoint {
			cks = append(cks, sp)
		}
	}
	if len(cks) != camp.Trials()+1 {
		t.Fatalf("want %d checkpoint spans (every completion + final), got %d", camp.Trials()+1, len(cks))
	}
	for i, sp := range cks {
		if sp.Seq != i+1 || sp.Scenario != "" {
			t.Fatalf("checkpoint span %d wrong identity: %+v", i, sp)
		}
	}
}

// The registry counts what the run did: trials, pool traffic,
// scheduler ticks, checkpoint writes, makespan observations.
func TestRunMetricsAccounting(t *testing.T) {
	camp := smokeCampaign()
	trials := int64(camp.Trials())
	reg := obs.NewRegistry()
	if _, err := Run(camp, Options{
		Workers: 1, Seed: 7,
		Metrics:         reg,
		CheckpointPath:  t.TempDir() + "/ck.json",
		CheckpointEvery: 1,
	}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := counterValue(snap, "fleet_trials_completed_total"); got != trials {
		t.Errorf("trials_completed = %d, want %d", got, trials)
	}
	// One worker, pooling on: one fresh build per scenario, the rest
	// of the trials served by Reset.
	scenarios := int64(len(camp.Scenarios))
	if got := counterValue(snap, "fleet_pool_builds_total"); got != scenarios {
		t.Errorf("pool_builds = %d, want %d", got, scenarios)
	}
	if got := counterValue(snap, "fleet_pool_hits_total"); got != trials-scenarios {
		t.Errorf("pool_hits = %d, want %d", got, trials-scenarios)
	}
	if got := counterValue(snap, "fleet_checkpoint_writes_total"); got != trials+1 {
		t.Errorf("checkpoint_writes = %d, want %d", got, trials+1)
	}
	steps := counterValue(snap, "fleet_sched_steps_total")
	ff := counterValue(snap, "fleet_sched_fastforwarded_ticks_total")
	if steps <= 0 {
		t.Errorf("sched_steps = %d, want > 0", steps)
	}
	if ff < 0 {
		t.Errorf("sched_fastforwarded = %d", ff)
	}
	if probes := counterValue(snap, "fleet_sched_probes_total"); probes <= 0 {
		t.Errorf("sched_probes = %d, want > 0", probes)
	}
	if visits := counterValue(snap, "fleet_sched_node_visits_total"); visits <= 0 {
		t.Errorf("sched_node_visits = %d, want > 0", visits)
	}
	var hist *obs.HistogramSnap
	for i := range snap.Histograms {
		if snap.Histograms[i].Name == "fleet_trial_ticks" {
			hist = &snap.Histograms[i]
		}
	}
	if hist == nil || hist.Count != trials {
		t.Fatalf("fleet_trial_ticks histogram missing or wrong count: %+v", hist)
	}

	// A degraded run counts its panics, retries and degradations; a
	// resumed run counts restored trials separately from completed.
	// Panicking every attempt of the fixed budget forces degradation.
	reg2 := obs.NewRegistry()
	if _, err := Run(camp, Options{Workers: 1, Seed: 7, Metrics: reg2, Faults: &FaultPlan{
		Panics: []PanicFault{
			{Scenario: "smoke/enhanced", Replication: 1, Point: PointBegin, Attempts: DefaultTrialRetries + 1},
		},
	}}); err != nil {
		t.Fatal(err)
	}
	snap2 := reg2.Snapshot()
	if got := counterValue(snap2, "fleet_trial_panics_total"); got != DefaultTrialRetries+1 {
		t.Errorf("trial_panics = %d, want %d", got, DefaultTrialRetries+1)
	}
	if got := counterValue(snap2, "fleet_trial_retries_total"); got != DefaultTrialRetries {
		t.Errorf("trial_retries = %d, want %d", got, DefaultTrialRetries)
	}
	if got := counterValue(snap2, "fleet_trials_degraded_total"); got != 1 {
		t.Errorf("trials_degraded = %d, want 1", got)
	}

	ck := interruptedCheckpoint(t, camp, Options{Workers: 2, Seed: 7}, 2)
	reg3 := obs.NewRegistry()
	if _, err := Run(camp, Options{Workers: 2, Seed: 7, ResumeFrom: ck, Metrics: reg3}); err != nil {
		t.Fatal(err)
	}
	snap3 := reg3.Snapshot()
	if got := counterValue(snap3, "fleet_trials_restored_total"); got != 2 {
		t.Errorf("trials_restored = %d, want 2", got)
	}
	if got := counterValue(snap3, "fleet_trials_completed_total"); got != trials-2 {
		t.Errorf("resumed trials_completed = %d, want %d", got, trials-2)
	}

	// An attacked campaign counts adversary steps.
	reg4 := obs.NewRegistry()
	if _, err := Run(e17RedTeamCampaign(), Options{Workers: 2, Seed: 7, Metrics: reg4}); err != nil {
		t.Fatal(err)
	}
	if got := counterValue(reg4.Snapshot(), "fleet_attack_steps_total"); got <= 0 {
		t.Errorf("attack_steps = %d, want > 0", got)
	}
}
