package fleet

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
)

// miniAttackCampaign is a two-scenario attacked campaign small enough
// for checkpoint-surgery tests: the insider-recon model against both
// profiles on the smoke geometry.
func miniAttackCampaign(t *testing.T) Campaign {
	t.Helper()
	model, err := attack.ModelByName("insider-recon")
	if err != nil {
		t.Fatal(err)
	}
	smoke := smokeCampaign()
	c := Campaign{Name: "mini-attack"}
	for i := range smoke.Scenarios {
		s := smoke.Scenarios[i]
		spec := model
		s.Attack = &spec
		c.Scenarios = append(c.Scenarios, s)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDecodeCampaignAttackSpec: the load-time contract of the attack
// field — unknown step names, malformed specs and typo'd fields are
// rejected when the campaign file is read, with the scenario named;
// a well-formed spec round-trips.
func TestDecodeCampaignAttackSpec(t *testing.T) {
	file := func(attackJSON string) string {
		return `{"name":"c","scenarios":[{"name":"s","profile":"enhanced",
			"workload":{"users":1,"jobs_per_user":1,"min_cores":1,"max_cores":1,"min_dur":1,"max_dur":1,"mem_b":1},
			"attack":` + attackJSON + `,"horizon":100,"replications":1}]}`
	}
	cases := []struct {
		name    string
		attack  string
		wantErr string // "" = must decode
	}{
		{name: "valid model", attack: `{"model":"custom","steps":["recon-proc","gpu-residue"]}`},
		{name: "valid with gap", attack: `{"model":"custom","steps":["ubf-probe"],"gap_ticks":5}`},
		{name: "unknown step", attack: `{"model":"custom","steps":["warp-core-breach"]}`,
			wantErr: `unknown step "warp-core-breach"`},
		{name: "no steps", attack: `{"model":"custom","steps":[]}`, wantErr: "has no steps"},
		{name: "no model", attack: `{"steps":["recon-proc"]}`, wantErr: "no model name"},
		{name: "duplicate step", attack: `{"model":"custom","steps":["recon-proc","recon-proc"]}`,
			wantErr: "duplicate step"},
		{name: "negative gap", attack: `{"model":"custom","steps":["recon-proc"],"gap_ticks":-2}`,
			wantErr: "gap_ticks"},
		{name: "typo field", attack: `{"model":"custom","stepz":["recon-proc"]}`, wantErr: "stepz"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := DecodeCampaign(strings.NewReader(file(tc.attack)))
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				if c.Scenarios[0].Attack == nil || c.Scenarios[0].Attack.Model != "custom" {
					t.Fatalf("attack spec lost in decode: %+v", c.Scenarios[0].Attack)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("want error containing %q, got %v", tc.wantErr, err)
			}
			// Scenario-level errors carry the scenario name for
			// grep-ability in big campaign files (decode-level typo
			// errors come from encoding/json and do not).
			if tc.name != "typo field" && !strings.Contains(err.Error(), `"s"`) {
				t.Errorf("error %q does not name the scenario", err)
			}
		})
	}
}

// TestE17DeterministicAcrossWorkersAndPooling is the acceptance
// criterion extended to attacked campaigns: the full e17-redteam
// preset produces byte-identical JSON at workers 1/4/8 and with
// pooling on or off.
func TestE17DeterministicAcrossWorkersAndPooling(t *testing.T) {
	camp := e17RedTeamCampaign()
	var want []byte
	for _, opt := range []Options{
		{Workers: 1, Seed: 7},
		{Workers: 4, Seed: 7},
		{Workers: 8, Seed: 7},
		{Workers: 4, Seed: 7, DisablePooling: true},
	} {
		got := runJSON(t, camp, opt)
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d pooling=%v produced different bytes", opt.Workers, !opt.DisablePooling)
		}
	}
}

// TestE17KillAndResumeByteIdentical: an attacked campaign killed
// mid-run resumes through its checkpoint to the uninterrupted bytes —
// the attack aggregates survive the round-trip.
func TestE17KillAndResumeByteIdentical(t *testing.T) {
	camp := e17RedTeamCampaign()
	clean := runJSON(t, camp, Options{Workers: 4, Seed: 7})
	ck := interruptedCheckpoint(t, camp, Options{Workers: 4, Seed: 7}, 5)
	if ck.Completed >= camp.Trials() {
		t.Fatalf("nothing left to resume: %d of %d trials completed", ck.Completed, camp.Trials())
	}
	resumed := runJSON(t, camp, Options{Workers: 4, Seed: 7, ResumeFrom: ck})
	if !bytes.Equal(resumed, clean) {
		t.Fatalf("resumed bytes differ from the uninterrupted run:\n%s\nvs\n%s", resumed, clean)
	}
	resumed1w := runJSON(t, camp, Options{Workers: 1, Seed: 7, ResumeFrom: ck})
	if !bytes.Equal(resumed1w, clean) {
		t.Fatal("single-worker resume bytes differ from the uninterrupted run")
	}
}

// TestCheckpointAttackShapeValidation: a checkpoint whose partials
// disagree with the campaign about attack aggregates is rejected at
// resume time, like a histogram-layout mismatch.
func TestCheckpointAttackShapeValidation(t *testing.T) {
	camp := miniAttackCampaign(t)
	ck := interruptedCheckpoint(t, camp, Options{Workers: 2, Seed: 7}, 2)

	reload := func(mutate func(*Checkpoint)) *Checkpoint {
		buf, err := json.Marshal(ck)
		if err != nil {
			t.Fatal(err)
		}
		fresh := new(Checkpoint)
		if err := json.Unmarshal(buf, fresh); err != nil {
			t.Fatal(err)
		}
		mutate(fresh)
		return fresh
	}
	mutateFirstPartial := func(f func(*ScenarioResult)) func(*Checkpoint) {
		return func(c *Checkpoint) {
			for i := range c.Scenarios {
				if len(c.Scenarios[i].Partials) > 0 {
					f(&c.Scenarios[i].Partials[0].Result)
					return
				}
			}
			t.Fatal("checkpoint has no partials to mutate")
		}
	}

	for name, tc := range map[string]struct {
		ck   *Checkpoint
		want string
	}{
		"aggregate dropped": {reload(mutateFirstPartial(func(r *ScenarioResult) { r.Attack = nil })),
			"attack aggregate presence"},
		"trial count skew": {reload(mutateFirstPartial(func(r *ScenarioResult) { r.Attack.Trials = 5 })),
			"attack aggregate holds"},
	} {
		if _, err := Run(camp, Options{Workers: 2, Seed: 7, ResumeFrom: tc.ck}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want error containing %q, got %v", name, tc.want, err)
		}
	}

	// And the inverse presence mismatch: a clean checkpoint of an
	// UNATTACKED campaign must reject a partial that grew an attack
	// aggregate (hash surgery is not needed — the result shape alone
	// trips it).
	plain := smokeCampaign()
	ckPlain := interruptedCheckpoint(t, plain, Options{Workers: 2, Seed: 7}, 2)
	bad := func() *Checkpoint {
		buf, _ := json.Marshal(ckPlain)
		fresh := new(Checkpoint)
		if err := json.Unmarshal(buf, fresh); err != nil {
			t.Fatal(err)
		}
		for i := range fresh.Scenarios {
			if len(fresh.Scenarios[i].Partials) > 0 {
				fresh.Scenarios[i].Partials[0].Result.Attack = attack.NewAgg()
				break
			}
		}
		return fresh
	}()
	if _, err := Run(plain, Options{Workers: 2, Seed: 7, ResumeFrom: bad}); err == nil || !strings.Contains(err.Error(), "attack aggregate presence") {
		t.Errorf("unattacked campaign accepted a partial with an attack aggregate: %v", err)
	}
}

// TestMergeAttackPresenceGuard: the reduction-level belt to the
// checkpoint validation's suspenders.
func TestMergeAttackPresenceGuard(t *testing.T) {
	with := &ScenarioResult{Name: "s", Attack: attack.NewAgg()}
	without := &ScenarioResult{Name: "s"}
	if err := with.Merge(without); err == nil || !strings.Contains(err.Error(), "attack aggregate") {
		t.Errorf("mixed-presence merge accepted: %v", err)
	}
}

// TestDegradedTrialCarriesAttackAgg: the degraded aggregate of an
// attacked scenario must keep the scenario's attack shape or every
// later merge (and the checkpoint validation) would reject it.
func TestDegradedTrialCarriesAttackAgg(t *testing.T) {
	camp := miniAttackCampaign(t)
	deg := degradedTrialResult(&camp.Scenarios[0])
	if deg.Attack == nil || deg.Attack.Trials != 0 {
		t.Fatalf("degraded attacked trial: attack agg %+v, want empty non-nil", deg.Attack)
	}
	ok := degradedTrialResult(&camp.Scenarios[0])
	if err := ok.Merge(deg); err != nil {
		t.Fatalf("degraded trial does not merge: %v", err)
	}
	if ok.Failures != 2 || ok.Attack.Trials != 0 {
		t.Errorf("merged degraded pair: failures=%d attack trials=%d, want 2/0", ok.Failures, ok.Attack.Trials)
	}
	plain := smokeCampaign()
	if deg := degradedTrialResult(&plain.Scenarios[0]); deg.Attack != nil {
		t.Error("degraded unattacked trial grew an attack aggregate")
	}
}

// TestE17PresetShape pins the preset grid: 5 models × 2 profiles + 9
// kill-chain ablations, every scenario attacked.
func TestE17PresetShape(t *testing.T) {
	camp := MustPreset(PresetE17RedTeam)
	want := 2*len(attack.Models()) + len(core.Measures())
	if len(camp.Scenarios) != want {
		t.Fatalf("e17 preset has %d scenarios, want %d", len(camp.Scenarios), want)
	}
	for _, s := range camp.Scenarios {
		if s.Attack == nil {
			t.Errorf("scenario %q has no attack spec", s.Name)
		}
	}
}

// TestAttackedTableHasAttackColumn: the campaign table grows an
// attack column exactly when some scenario ran an adversary.
func TestAttackedTableHasAttackColumn(t *testing.T) {
	camp := miniAttackCampaign(t)
	res, err := Run(camp, Options{Workers: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if out := res.Table().Render(); !strings.Contains(out, "attack") {
		t.Errorf("attacked campaign table has no attack column:\n%s", out)
	}
	plainRes, err := Run(smokeCampaign(), Options{Workers: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if out := plainRes.Table().Render(); strings.Contains(out, "attack") {
		t.Errorf("unattacked campaign table grew an attack column:\n%s", out)
	}
}
