package fleet

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestDecodeFaultPlanRejectsUnknownFields(t *testing.T) {
	if _, err := DecodeFaultPlan(strings.NewReader(`{"paniks":[]}`)); err == nil || !strings.Contains(err.Error(), "paniks") {
		t.Errorf("typo field accepted: %v", err)
	}
	p, err := DecodeFaultPlan(strings.NewReader(`{"panics":[{"scenario":"smoke/enhanced","replication":1,"point":"begin"}],"kill_after_trials":3}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Panics) != 1 || p.Panics[0].Point != PointBegin || p.KillAfterTrials != 3 {
		t.Errorf("decoded plan mangled: %+v", p)
	}
}

func TestFaultPlanValidate(t *testing.T) {
	camp := smokeCampaign()
	for name, tc := range map[string]struct {
		plan FaultPlan
		want string
	}{
		"unknown scenario":      {FaultPlan{Panics: []PanicFault{{Scenario: "nope", Replication: 0}}}, "unknown scenario"},
		"replication range":     {FaultPlan{Panics: []PanicFault{{Scenario: "smoke/enhanced", Replication: 3}}}, "outside"},
		"negative attempts":     {FaultPlan{Panics: []PanicFault{{Scenario: "smoke/enhanced", Attempts: -1}}}, "attempts"},
		"unknown point":         {FaultPlan{Panics: []PanicFault{{Scenario: "smoke/enhanced", Point: "middle"}}}, "point"},
		"zero-based ckpt write": {FaultPlan{CheckpointWrites: []int{0}}, "1-based"},
		"negative delay":        {FaultPlan{Delays: []WorkerDelay{{Worker: 0, PerTrialMS: -5}}}, "negative"},
		"negative kill":         {FaultPlan{KillAfterTrials: -1}, "kill_after_trials"},
	} {
		if err := tc.plan.Validate(camp); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want error containing %q, got %v", name, tc.want, err)
		}
	}
	ok := FaultPlan{
		Panics:           []PanicFault{{Scenario: "smoke/enhanced", Replication: 2, Attempts: 2, Point: PointBegin}},
		CheckpointWrites: []int{1},
		Delays:           []WorkerDelay{{Worker: 1, PerTrialMS: 1}},
	}
	if err := ok.Validate(camp); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
	// Run must reject a plan it cannot honour up front, not inject
	// nothing: an invalid plan, and shard-scoped faults (Run has no
	// shard identity to arm them against; only RunShard does).
	for name, tc := range map[string]struct {
		plan FaultPlan
		want string
	}{
		"invalid plan":       {FaultPlan{KillAfterTrials: -1}, "kill_after_trials"},
		"shard-scoped fault": {FaultPlan{Shards: []ShardFault{{Shard: 0, Mode: ShardSlow, DelayMS: 1}}}, "only RunShard"},
	} {
		if _, err := Run(camp, Options{Faults: &tc.plan}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Run with %s: want error containing %q, got %v", name, tc.want, err)
		}
	}
}

// The core panic-isolation promise: a trial that panics within the
// retry budget is retried under the identical stream seed, and the
// campaign's final bytes are identical to a run with no fault at all
// — the recovery is invisible in the results, visible only in the
// TrialFailures ledger. Exercised at both fault points; PointSubmit
// panics with a dirty cluster, so a byte-identical retry proves the
// quarantine actually discarded the poisoned pool slot.
func TestInjectedPanicRecoveredByteIdentical(t *testing.T) {
	camp := smokeCampaign()
	clean := runJSON(t, camp, Options{Workers: 2, Seed: 7})
	for _, point := range []string{PointBegin, PointSubmit} {
		t.Run(point, func(t *testing.T) {
			res, err := Run(camp, Options{Workers: 2, Seed: 7, Faults: &FaultPlan{
				Panics: []PanicFault{{Scenario: "smoke/enhanced", Replication: 1, Point: point}},
			}})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			data, err := res.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, clean) {
				t.Fatalf("recovered-run bytes differ from the fault-free run:\n%s\nvs\n%s", data, clean)
			}
			if len(res.TrialFailures) != 1 {
				t.Fatalf("want exactly 1 recorded failure, got %d: %+v", len(res.TrialFailures), res.TrialFailures)
			}
			tf := res.TrialFailures[0]
			if tf.Scenario != "smoke/enhanced" || tf.Replication != 1 || tf.Attempt != 1 || tf.Terminal {
				t.Errorf("failure record wrong: %+v", tf)
			}
			if !strings.Contains(tf.Panic, "injected panic") || !strings.Contains(tf.Panic, point) {
				t.Errorf("panic message should identify the chaos injection: %q", tf.Panic)
			}
			if !strings.Contains(tf.Stack, "runTrial") {
				t.Errorf("failure should carry the panicking stack, got %q", tf.Stack)
			}
		})
	}
}

// A trial whose every attempt panics degrades to a counted failure:
// the campaign completes, the scenario reports Replications = N-1 and
// Failures = 1, and every other scenario's statistics are exactly
// those of a fault-free run.
func TestInjectedPanicTerminalDegradation(t *testing.T) {
	camp := smokeCampaign()
	clean := runJSON(t, camp, Options{Workers: 2, Seed: 7})
	var cleanRes CampaignResult
	if err := json.Unmarshal(clean, &cleanRes); err != nil {
		t.Fatal(err)
	}

	res, err := Run(camp, Options{Workers: 2, Seed: 7, Faults: &FaultPlan{
		Panics: []PanicFault{{Scenario: "smoke/baseline", Replication: 0, Attempts: 99}},
	}})
	if err != nil {
		t.Fatalf("a terminal trial failure must degrade, not abort: %v", err)
	}

	wantAttempts := DefaultTrialRetries + 1
	if len(res.TrialFailures) != wantAttempts {
		t.Fatalf("want %d recorded attempts, got %d", wantAttempts, len(res.TrialFailures))
	}
	for i, tf := range res.TrialFailures {
		if tf.Attempt != i+1 {
			t.Errorf("attempt %d recorded as %d", i+1, tf.Attempt)
		}
		if terminal := i == len(res.TrialFailures)-1; tf.Terminal != terminal {
			t.Errorf("attempt %d: Terminal = %v, want %v", tf.Attempt, tf.Terminal, terminal)
		}
	}

	for i, s := range res.Scenarios {
		spec := camp.Scenarios[i]
		if s.Name == "smoke/baseline" {
			if s.Failures != 1 || s.Replications != spec.Replications-1 {
				t.Errorf("degraded scenario: replications %d failures %d, want %d and 1",
					s.Replications, s.Failures, spec.Replications-1)
			}
			continue
		}
		// The untouched scenario must be bit-for-bit the fault-free
		// run's (compare through the same JSON round-trip the clean
		// bytes went through).
		buf, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var got ScenarioResult
		if err := json.Unmarshal(buf, &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&got, cleanRes.Scenarios[i]) {
			t.Errorf("scenario %q perturbed by another scenario's terminal failure:\n%+v\nvs\n%+v",
				s.Name, got, cleanRes.Scenarios[i])
		}
	}
}

// White-box: a panic mid-trial quarantines the worker's pooled
// cluster — the retry builds a fresh one rather than trusting Reset
// on a cluster in an unknown state — and the retried trial's
// aggregate equals a never-pooled fresh worker's byte for byte.
func TestPanicQuarantinesPooledCluster(t *testing.T) {
	camp := smokeCampaign()
	comp, err := compileCampaign(camp, 7)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := compileFaults(&FaultPlan{
		Panics: []PanicFault{{Scenario: camp.Scenarios[0].Name, Replication: 0, Point: PointSubmit}},
	}, camp, &ShardRun{Count: 1, Attempt: 1})
	if err != nil {
		t.Fatal(err)
	}

	w := newTrialWorker(comp, true)
	w.faults = inj
	// Populate the pool with a clean trial first.
	if _, fails, err := w.runTrialIsolated(0, 1); err != nil || len(fails) != 0 {
		t.Fatalf("clean trial: fails %v err %v", fails, err)
	}
	before := w.slots[0].cluster
	if before == nil {
		t.Fatal("pooling worker retained no cluster")
	}

	res, fails, err := w.runTrialIsolated(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(fails) != 1 || fails[0].Terminal {
		t.Fatalf("want one recovered failure, got %+v", fails)
	}
	after := w.slots[0].cluster
	if after == nil {
		t.Fatal("retry did not repopulate the pool")
	}
	if after == before {
		t.Fatal("poisoned cluster survived the panic in the pool")
	}

	fresh := newTrialWorker(comp, false)
	want, fails, err := fresh.runTrialIsolated(0, 0)
	if err != nil || len(fails) != 0 {
		t.Fatalf("fresh trial: fails %v err %v", fails, err)
	}
	gotJSON, _ := json.Marshal(res)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("retried trial differs from a fresh worker's:\n%s\nvs\n%s", gotJSON, wantJSON)
	}
}

// Losing checkpoint writes must not kill the campaign the checkpoint
// protects: failed periodic writes are counted, the results are
// untouched, and the final sidecar (a later write) is complete.
func TestCheckpointWriteFailureTolerated(t *testing.T) {
	camp := smokeCampaign()
	clean := runJSON(t, camp, Options{Workers: 2, Seed: 7})
	path := filepath.Join(t.TempDir(), "ckpt.json")
	res, err := Run(camp, Options{Workers: 2, Seed: 7, CheckpointPath: path, CheckpointEvery: 1,
		Faults: &FaultPlan{CheckpointWrites: []int{2, 3}}})
	if err != nil {
		t.Fatalf("failed checkpoint writes aborted the run: %v", err)
	}
	if res.CheckpointWriteFailures != 2 {
		t.Errorf("CheckpointWriteFailures = %d, want 2", res.CheckpointWriteFailures)
	}
	data, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, clean) {
		t.Fatal("checkpoint write failures changed the result bytes")
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("final checkpoint unreadable: %v", err)
	}
	if ck.Completed != camp.Trials() {
		t.Errorf("final checkpoint records %d trials, want all %d", ck.Completed, camp.Trials())
	}
	if err := ck.ValidateAgainst(camp, 7); err != nil {
		t.Errorf("final checkpoint invalid: %v", err)
	}
}

// Worker delays change wall-clock only — the scheduling perturbation
// they exist to cause must never reach the results.
func TestWorkerDelayWallClockOnly(t *testing.T) {
	camp := smokeCampaign()
	clean := runJSON(t, camp, Options{Workers: 2, Seed: 7})
	delayed := runJSON(t, camp, Options{Workers: 2, Seed: 7, Faults: &FaultPlan{
		Delays: []WorkerDelay{{Worker: 0, PerTrialMS: 2}},
	}})
	if !bytes.Equal(delayed, clean) {
		t.Fatal("a worker delay changed the result bytes")
	}
}
