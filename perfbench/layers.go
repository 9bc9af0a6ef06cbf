package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/fleet/shard"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/workload"
)

// makespanBuckets is the executor's fixed makespan histogram layout.
// The replay's byte-equality check against fleet.Run pins it.
const makespanBuckets = 16

// probeReps is how many times each attack probe runs per traced run.
const probeReps = 40

// resolveScenario derives a scenario's cluster config and topology the
// way the fleet executor compiles it: profile, ablations, then the
// policy override.
func resolveScenario(s fleet.Scenario) (core.Config, core.Topology, error) {
	prof, err := core.ProfileByName(s.Profile)
	if err != nil {
		return core.Config{}, core.Topology{}, err
	}
	topo := s.Topology
	if topo == (core.Topology{}) {
		topo = core.DefaultTopology()
	}
	opts := []core.Option{core.WithTopology(topo)}
	for _, name := range s.Ablate {
		opts = append(opts, core.Without(name))
	}
	if s.Policy != "" {
		pol, err := sched.ParsePolicy(s.Policy)
		if err != nil {
			return core.Config{}, core.Topology{}, err
		}
		opts = append(opts, core.WithMeasures(core.Measure{
			Name:    "fleet-policy-" + s.Policy,
			Summary: "pin the node-sharing policy for this scenario",
			Apply:   func(cfg *core.Config) { cfg.Policy = pol },
		}))
	}
	resolved, topo, err := core.ResolveProfile(prof, opts...)
	if err != nil {
		return core.Config{}, core.Topology{}, err
	}
	cfg, err := resolved.Config()
	return cfg, topo, err
}

// span is one timed call into a layer. Spans of one trial share Trial;
// every layer span's parent is its trial's root span.
type span struct {
	Trial  int    `json:"trial"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layerAcc is a layer's accumulated self time and call count.
type layerAcc struct {
	ns int64
	n  int64
}

// replayCounts are the deterministic counts of one campaign pass.
type replayCounts struct {
	Trials      int64 `json:"trials"`
	PoolBuilds  int64 `json:"pool_builds"`
	PoolHits    int64 `json:"pool_hits"`
	Users       int64 `json:"users"`
	Jobs        int64 `json:"jobs"`
	Attacked    int64 `json:"attacked_trials"`
	AttackSteps int64 `json:"attack_steps"`
	SchedSteps  int64 `json:"sched_steps"`
	FFTicks     int64 `json:"sched_ff_ticks"`
	DrainSteps  int64 `json:"drain_steps"`
	Merges      int64 `json:"merges"`
}

// replayer re-executes a campaign's trials on one worker through the
// same public calls, in the order the fleet executor makes them,
// timing each call.
type replayer struct {
	origin time.Time
	keep   bool // record spans (first pass only)
	spans  []span
	nextID int
	trial  int
	acc    map[string]*layerAcc
}

func newReplayer() *replayer {
	return &replayer{origin: time.Now(), keep: true, acc: make(map[string]*layerAcc)}
}

// add records a layer span [from, to) under the current trial.
func (r *replayer) add(name string, from, to time.Time, root int) {
	a := r.acc[name]
	if a == nil {
		a = &layerAcc{}
		r.acc[name] = a
	}
	a.ns += to.Sub(from).Nanoseconds()
	a.n++
	if r.keep {
		r.nextID++
		r.spans = append(r.spans, span{Trial: r.trial, ID: r.nextID, Parent: root, Name: name,
			Start: from.Sub(r.origin).Nanoseconds(), End: to.Sub(r.origin).Nanoseconds()})
	}
}

// pass replays the whole campaign once and returns its reduced result.
func (r *replayer) pass(c fleet.Campaign, master uint64) (*fleet.CampaignResult, replayCounts, error) {
	var cnt replayCounts
	res := &fleet.CampaignResult{Campaign: c.Name, Seed: master}
	for si := range c.Scenarios {
		s := &c.Scenarios[si]
		cfg, topo, err := resolveScenario(*s)
		if err != nil {
			return nil, cnt, err
		}
		var comp *attack.Compiled
		if s.Attack != nil {
			if comp, err = s.Attack.Compile(); err != nil {
				return nil, cnt, err
			}
		}
		var (
			cl       *core.Cluster
			scratch  workload.BuildScratch
			creds    []ids.Credential
			rng, arn metrics.RNG
			agg      *fleet.ScenarioResult
		)
		for rep := 0; rep < s.Replications; rep++ {
			r.trial++
			cnt.Trials++
			rootStart := time.Now()
			r.nextID++
			root := r.nextID

			// 1. core.New (first trial of the scenario) or Reset.
			t := time.Now()
			if cl == nil {
				if cl, err = core.New(cfg, topo); err != nil {
					return nil, cnt, err
				}
				r.add("core.new", t, time.Now(), root)
				cnt.PoolBuilds++
			} else {
				if err := cl.Reset(); err != nil {
					return nil, cnt, err
				}
				r.add("core.reset", t, time.Now(), root)
				cnt.PoolHits++
			}

			// 2. AddUser per account.
			trialSeed := s.TrialSeed(master, rep)
			rng.Reseed(trialSeed)
			creds = creds[:0]
			for u := 0; u < s.Workload.Users; u++ {
				t = time.Now()
				acct, err := cl.AddUser(fleet.UserName(u), "pw")
				r.add("core.adduser", t, time.Now(), root)
				if err != nil {
					return nil, cnt, err
				}
				creds = append(creds, acct.Cred)
			}
			cnt.Users += int64(s.Workload.Users)

			// 3. Build the mix.
			t = time.Now()
			mix, err := s.Workload.BuildInto(&rng, creds, &scratch)
			r.add("workload.build", t, time.Now(), root)
			if err != nil {
				return nil, cnt, err
			}

			// 4. Submit every job.
			for i := range mix {
				t = time.Now()
				_, err := cl.Sched.Submit(mix[i].Cred, mix[i].Spec)
				r.add("sched.submit", t, time.Now(), root)
				if err != nil {
					return nil, cnt, err
				}
			}
			cnt.Jobs += int64(len(mix))

			// 5. The adversary campaign, on its own stream.
			var att *attack.Outcome
			if comp != nil {
				arn.Reseed(metrics.StreamSeed(trialSeed, attack.StreamIndex))
				t = time.Now()
				att, _, err = comp.Execute(cl, &arn, s.Horizon)
				r.add("attack.execute", t, time.Now(), root)
				if err != nil {
					return nil, cnt, err
				}
				cnt.Attacked++
				cnt.AttackSteps += int64(att.Steps)
			}

			// 6. Drain the remaining horizon.
			stepsBefore, _ := cl.Sched.Stats()
			if remaining := s.Horizon - int(cl.Now()); remaining > 0 {
				t = time.Now()
				cl.RunAll(remaining)
				r.add("sched.runall", t, time.Now(), root)
			}
			steps, ff := cl.Sched.Stats()
			cnt.SchedSteps += steps
			cnt.FFTicks += ff
			cnt.DrainSteps += steps - stepsBefore

			// 7. Aggregate the trial and merge it in trial-index order.
			t = time.Now()
			ticks := int(cl.Now())
			crashes, cofail := cl.Sched.Crashes()
			tr := &fleet.ScenarioResult{
				Name:         s.Name,
				Replications: 1,
				MakespanHist: &metrics.Histogram{Lo: 0, Hi: float64(s.Horizon), Counts: make([]int64, makespanBuckets)},
				Crashes:      crashes,
				Cofailures:   cofail,
				Unfinished:   len(cl.Sched.Squeue(ids.RootCred())),
			}
			tr.Util.Add(cl.Sched.Utilization())
			tr.Makespan.Add(float64(ticks))
			tr.MakespanHist.Add(float64(ticks))
			if att != nil {
				a := attack.NewAgg()
				a.AddOutcome(att)
				tr.Attack = a
			}
			r.add("fleet.aggregate", t, time.Now(), root)
			if agg == nil {
				agg = tr
			} else {
				t = time.Now()
				err := agg.Merge(tr)
				r.add("fleet.merge", t, time.Now(), root)
				if err != nil {
					return nil, cnt, err
				}
				cnt.Merges++
			}
			end := time.Now()
			a := r.acc["trial"]
			if a == nil {
				a = &layerAcc{}
				r.acc["trial"] = a
			}
			a.ns += end.Sub(rootStart).Nanoseconds()
			a.n++
			if r.keep {
				r.spans = append(r.spans, span{Trial: r.trial, ID: root, Name: "trial",
					Start: rootStart.Sub(r.origin).Nanoseconds(), End: end.Sub(r.origin).Nanoseconds()})
			}
		}
		res.Scenarios = append(res.Scenarios, agg)
	}
	return res, cnt, nil
}

// layerResult is the traced run's output.
type layerResult struct {
	rows      []metricRow
	attempted int
	failed    int
}

// measureLayers is the traced run: the in-process replay with spans,
// the untraced fleet.Run of the same campaign (the byte reference and
// the tracing-overhead base), fleetrun's own -trace/-metrics output,
// the shard checkpoint path, one trip through fleetd, and one-step
// attack probes.
func measureLayers(e *runEnv) (*layerResult, error) {
	lr := &layerResult{}
	trials := e.camp.Trials()
	check := func(what string, got, want []byte) {
		lr.attempted += trials
		if !bytes.Equal(got, want) {
			e.chk.failf("%s bytes differ from fleet.Run's for the same campaign and seed", what)
			lr.failed += trials
		}
	}
	runOnce := func() ([]byte, time.Duration, error) {
		start := time.Now()
		res, err := fleet.Run(e.camp, fleet.Options{Workers: 1, Seed: e.master})
		d := time.Since(start)
		if err != nil {
			return nil, d, err
		}
		data, err := res.JSON()
		return data, d, err
	}
	ref, _, err := runOnce()
	if err != nil {
		return nil, err
	}
	e.checkResult(ref)

	// Replay and untraced runs alternate for half the run.
	rp := newReplayer()
	var first replayCounts
	var replayNS, runNS int64
	passes := 0
	start := time.Now()
	for passes < 2 || time.Since(start).Seconds() < e.seconds/2 {
		t := time.Now()
		res, cnt, err := rp.pass(e.camp, e.master)
		replayNS += time.Since(t).Nanoseconds()
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		rp.keep = false
		data, err := res.JSON()
		if err != nil {
			return nil, err
		}
		check("replayed CampaignResult", data, ref)
		if passes == 0 {
			first = cnt
		} else if cnt != first {
			e.chk.failf("replay pass %d counted %+v, pass 1 counted %+v", passes+1, cnt, first)
		}
		_, d, err := runOnce()
		if err != nil {
			return nil, err
		}
		runNS += d.Nanoseconds()
		passes++
	}
	if err := writeSpans(e, rp.spans); err != nil {
		return nil, err
	}
	e.checkCounts(first)

	if err := e.fleetrunTrace(first, ref, check); err != nil {
		return nil, err
	}
	ck, err := e.checkpointLayer(ref, check)
	if err != nil {
		return nil, err
	}
	sv, err := e.serviceLayer(ref, ck.sidecars, check)
	if err != nil {
		return nil, err
	}
	stepUS, kill, err := e.attackProbes()
	if err != nil {
		return nil, err
	}
	lm := &layerMeasures{rp: rp, first: first, passes: passes, replayNS: replayNS, runNS: runNS,
		ck: ck, sv: sv, stepUS: stepUS, kill: kill}
	lr.rows = lm.rows()
	lm.notes(e)
	return lr, nil
}

// layerMeasures is everything the traced run measured.
type layerMeasures struct {
	rp              *replayer
	first           replayCounts // counts of one replay pass
	passes          int
	replayNS, runNS int64
	ck              *checkpointResult
	sv              *serviceResult
	stepUS          map[string]float64 // one-step probe time by step name
	kill            killProbe
}

func (lm *layerMeasures) acc(name string) layerAcc {
	if a := lm.rp.acc[name]; a != nil {
		return *a
	}
	return layerAcc{}
}

// perCall is a layer's mean time per call, in units of scale ns.
func (lm *layerMeasures) perCall(name string, scale float64) float64 {
	a := lm.acc(name)
	return ratio(float64(a.ns), float64(a.n)) / scale
}

// trialAndChildNS are the replay's summed trial wall time and the part
// of it spent inside timed layer calls.
func (lm *layerMeasures) trialAndChildNS() (float64, float64) {
	child := 0.0
	for name, a := range lm.rp.acc {
		if name != "trial" {
			child += float64(a.ns)
		}
	}
	return float64(lm.acc("trial").ns), child
}

func (lm *layerMeasures) rows() []metricRow {
	first, passes := lm.first, int64(lm.passes)
	trialNS, childNS := lm.trialAndChildNS()
	execUS, steps, usPerStep := lm.perCall("attack.execute", 1e3), float64(first.AttackSteps), 0.0
	execN := lm.acc("attack.execute").n
	if first.Attacked > 0 {
		usPerStep = ratio(float64(lm.acc("attack.execute").ns)/1e3, float64(first.AttackSteps*passes))
	} else {
		// No attacker in this campaign: the attack rows time the kill
		// chain against an idle enhanced cluster instead.
		execUS, steps, usPerStep, execN = lm.kill.execUS, float64(lm.kill.steps), lm.kill.usPerStep, probeReps
	}
	runAll := lm.acc("sched.runall")
	n := func(name string) int { return int(lm.acc(name).n) }
	rows := []metricRow{
		{name: "core.new_ms", value: lm.perCall("core.new", 1e6), unit: "ms", samples: n("core.new")},
		{name: "core.reset_us", value: lm.perCall("core.reset", 1e3), unit: "us", samples: n("core.reset")},
		{name: "core.adduser_us", value: lm.perCall("core.adduser", 1e3), unit: "us", samples: n("core.adduser")},
		{name: "workload.build_us", value: lm.perCall("workload.build", 1e3), unit: "us", samples: n("workload.build")},
		{name: "sched.submit_us", value: lm.perCall("sched.submit", 1e3), unit: "us", samples: n("sched.submit")},
		{name: "sched.step_us", value: ratio(float64(runAll.ns)/1e3, float64(first.DrainSteps*passes)), unit: "us", samples: int(runAll.n)},
		{name: "sched.steps", value: float64(first.SchedSteps), unit: "count"},
		{name: "sched.ff_ticks", value: float64(first.FFTicks), unit: "count"},
		{name: "sched.ff_ratio", value: ratio(float64(first.FFTicks), float64(first.SchedSteps+first.FFTicks)), unit: "ratio"},
		{name: "attack.execute_us", value: execUS, unit: "us", samples: int(execN)},
		{name: "attack.steps", value: steps, unit: "count"},
		{name: "attack.us_per_step", value: usPerStep, unit: "us"},
		{name: "fleet.pool_hit_ratio", value: ratio(float64(first.PoolHits), float64(first.PoolHits+first.PoolBuilds)), unit: "ratio"},
		{name: "fleet.pool_hits", value: float64(first.PoolHits), unit: "count"},
		{name: "fleet.pool_builds", value: float64(first.PoolBuilds), unit: "count"},
		{name: "fleet.residual_frac", value: ratio(trialNS-childNS, trialNS), unit: "ratio", samples: n("trial")},
		{name: "fleet.merge_us", value: lm.perCall("fleet.merge", 1e3), unit: "us", samples: n("fleet.merge")},
		{name: "fleet.checkpoint_writes", value: float64(lm.ck.writes), unit: "count"},
		{name: "fleet.checkpoint_bytes", value: float64(lm.ck.bytes), unit: "B"},
		{name: "fleet.checkpoint_save_ms", value: median(lm.ck.saveMS), unit: "ms", samples: len(lm.ck.saveMS)},
		{name: "fleet.checkpoint_load_ms", value: median(lm.ck.loadMS), unit: "ms", samples: len(lm.ck.loadMS)},
		{name: "shard.queue_wait_ms", value: lm.sv.queueWaitS * 1e3, unit: "ms", samples: 1},
		{name: "shard.first_scenario_ms", value: lm.sv.firstScenS * 1e3, unit: "ms", samples: 1},
		{name: "shard.attempts", value: float64(lm.sv.attempts), unit: "count"},
		{name: "trace.overhead_frac", value: ratio(float64(lm.replayNS), float64(lm.runNS)) - 1, unit: "ratio", samples: lm.passes},
	}
	for _, name := range attack.StepNames() {
		rows = append(rows, metricRow{name: "attack.step_us." + name, value: lm.stepUS[name], unit: "us", samples: probeReps})
	}
	return rows
}

// notes adds the self-time breakdown behind the rows to the table.
func (lm *layerMeasures) notes(e *runEnv) {
	trialNS, childNS := lm.trialAndChildNS()
	f := lm.first
	e.notef("replay: %d passes; per pass %d trials, %d users, %d jobs, %d merges; trial wall %.3f ms mean",
		lm.passes, f.Trials, f.Users, f.Jobs, f.Merges, ratio(trialNS/1e6, float64(lm.acc("trial").n)))
	var names []string
	for name := range lm.rp.acc {
		if name != "trial" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		a := lm.rp.acc[name]
		e.notef("  self time %-16s %6.2f%% of trial wall (%d calls)", name, 100*ratio(float64(a.ns), trialNS), a.n)
	}
	e.notef("  residual (trial self time) %.2f%% of trial wall; tracing overhead %+.2f%% vs untraced fleet.Run",
		100*ratio(trialNS-childNS, trialNS), 100*(ratio(float64(lm.replayNS), float64(lm.runNS))-1))
}

// checkCounts pins the replay's deterministic counts: the workload
// shape must match the campaign spec, and a repeated run of the same
// seed must count the same.
func (e *runEnv) checkCounts(cnt replayCounts) {
	var users, jobs, trials int64
	for _, s := range e.camp.Scenarios {
		trials += int64(s.Replications)
		users += int64(s.Replications * s.Workload.Users)
		jobs += int64(s.Replications * s.Workload.Users * s.Workload.JobsPerUser)
	}
	if cnt.Trials != trials || cnt.Users != users || cnt.Jobs != jobs {
		e.chk.failf("replay ran %d trials, %d users, %d jobs; the campaign specifies %d, %d, %d",
			cnt.Trials, cnt.Users, cnt.Jobs, trials, users, jobs)
	}
	if err := e.recordDeterminism("counts", cnt); err != nil {
		e.chk.failf("recording counts: %v", err)
	}
}

// writeSpans keeps the first replay pass's spans next to the build
// outputs, as NDJSON, for reading after the run.
func writeSpans(e *runEnv, spans []span) error {
	dir := filepath.Join(filepath.Dir(e.state), "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return fleet.WriteFileAtomic(filepath.Join(dir, fmt.Sprintf("%s-%d.ndjson", e.w.name, e.seed)), buf.Bytes())
}

// fleetrunTrace runs fleetrun with its own -trace and -metrics on one
// worker and checks its counters against the replay's.
func (e *runEnv) fleetrunTrace(cnt replayCounts, ref []byte, check func(string, []byte, []byte)) error {
	tracePath := filepath.Join(e.dir, "fleetrun-trace.ndjson")
	metricsPath := filepath.Join(e.dir, "fleetrun-metrics.json")
	cr, err := runChild(e.fleetrun(), "-campaign", e.campPath, "-seed", fmt.Sprint(e.master), "-workers", "1",
		"-json", "-trace", tracePath, "-metrics", metricsPath)
	if err != nil {
		return err
	}
	check("fleetrun -trace result", cr.stdout, ref)
	data, err := os.ReadFile(metricsPath)
	if err != nil {
		return err
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("fleetrun -metrics: %w", err)
	}
	counters := map[string]int64{}
	for _, c := range snap.Counters {
		counters[c.Name] = int64(c.Value)
	}
	for name, want := range map[string]int64{
		"fleet_trials_completed_total":          cnt.Trials,
		"fleet_pool_builds_total":               cnt.PoolBuilds,
		"fleet_pool_hits_total":                 cnt.PoolHits,
		"fleet_sched_steps_total":               cnt.SchedSteps,
		"fleet_sched_fastforwarded_ticks_total": cnt.FFTicks,
		"fleet_attack_steps_total":              cnt.AttackSteps,
	} {
		if counters[name] != want {
			e.chk.failf("fleetrun counter %s = %d, the replay counted %d", name, counters[name], want)
		}
	}
	f, err := os.Open(tracePath)
	if err != nil {
		return err
	}
	defer f.Close()
	phaseNS := map[string]int64{}
	var total int64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s obs.Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return fmt.Errorf("fleetrun -trace: %w", err)
		}
		if s.Scenario != "" {
			phaseNS[s.Phase] += s.WallNS
			total += s.WallNS
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	var parts []string
	for _, p := range []string{obs.PhaseReset, obs.PhaseMix, obs.PhaseAttack, obs.PhaseDrain, obs.PhaseAggregate} {
		if ns, ok := phaseNS[p]; ok {
			parts = append(parts, fmt.Sprintf("%s %.1f%%", p, 100*float64(ns)/float64(total)))
		}
	}
	e.notef("fleetrun -trace phases (share of traced trial wall): %s", strings.Join(parts, ", "))
	return nil
}

// checkpointResult is the shard checkpoint path measured in process.
type checkpointResult struct {
	writes   int64
	bytes    int64
	saveMS   []float64
	loadMS   []float64
	sidecars [][]byte // final sidecar bytes per shard
}

// checkpointLayer runs each shard of a serviceShards-way plan in
// process with fleetd's default per-trial checkpoint cadence, times
// saving and loading the final sidecars, and merges them.
func (e *runEnv) checkpointLayer(ref []byte, check func(string, []byte, []byte)) (*checkpointResult, error) {
	plan, err := shard.Plan(e.camp, serviceShards)
	if err != nil {
		return nil, err
	}
	out := &checkpointResult{}
	reg := obs.NewRegistry()
	var cks []*fleet.Checkpoint
	var wantWrites int64
	for i, a := range plan {
		path := filepath.Join(e.dir, fmt.Sprintf("inproc-shard-%d.ck.json", i))
		ck, _, err := fleet.RunShard(e.camp, fleet.Options{
			Workers: 1, Seed: e.master, CheckpointPath: path, CheckpointEvery: 1, Metrics: reg,
		}, fleet.ShardRun{Index: i, Count: serviceShards, Ranges: a.Ranges})
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		wantWrites += int64(a.Trials()) + 1
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		out.sidecars = append(out.sidecars, data)
		out.bytes += int64(len(data))
		for r := 0; r < 5; r++ {
			t := time.Now()
			if err := ck.Save(path); err != nil {
				return nil, err
			}
			out.saveMS = append(out.saveMS, float64(time.Since(t).Nanoseconds())/1e6)
			t = time.Now()
			if _, err := fleet.LoadCheckpoint(path); err != nil {
				return nil, err
			}
			out.loadMS = append(out.loadMS, float64(time.Since(t).Nanoseconds())/1e6)
		}
		cks = append(cks, ck)
	}
	for _, c := range reg.Snapshot().Counters {
		if c.Name == "fleet_checkpoint_writes_total" {
			out.writes = int64(c.Value)
		}
	}
	if out.writes != wantWrites {
		e.chk.failf("shards wrote %d checkpoints, want %d (one per trial plus a final one per shard)", out.writes, wantWrites)
	}
	merged, err := shard.MergeCheckpoints(e.camp, e.master, cks, false)
	if err != nil {
		return nil, err
	}
	data, err := merged.JSON()
	if err != nil {
		return nil, err
	}
	check("merged shard checkpoints", data, ref)
	return out, nil
}

// serviceResult is one traced trip through fleetd.
type serviceResult struct {
	queueWaitS float64
	firstScenS float64
	attempts   int64
}

// serviceLayer submits the campaign once to a fresh fleetd and reads
// the supervision layer's numbers from its HTTP surface and sidecars.
func (e *runEnv) serviceLayer(ref []byte, sidecars [][]byte, check func(string, []byte, []byte)) (*serviceResult, error) {
	dir := filepath.Join(e.dir, "fleetd-traced")
	p, _, err := e.startFleetd(dir)
	if err != nil {
		return nil, err
	}
	sub, err := e.submit(p.base, true)
	if err != nil {
		p.kill()
		return nil, err
	}
	attempts, err := promCounter(p.base, "shard_attempts_total")
	if err != nil {
		p.kill()
		return nil, err
	}
	if _, _, err := p.stop(); err != nil {
		return nil, err
	}
	lr := &serviceResult{queueWaitS: sub.queueWaitS, firstScenS: sub.firstScenS, attempts: attempts}
	check("fleetd result", sub.result, ref)
	if !bytes.Equal(sub.result, ref) {
		return lr, nil
	}
	if attempts != serviceShards {
		e.chk.failf("fleetd made %d shard attempts for %d shards without faults", attempts, serviceShards)
	}
	for i, want := range sidecars {
		got, err := os.ReadFile(filepath.Join(dir, sub.id, fmt.Sprintf("shard-%d.ck.json", i)))
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(got, want) {
			e.chk.failf("fleetd shard %d final sidecar differs from the in-process shard's", i)
		}
	}
	return lr, nil
}

// promCounter reads one unlabelled counter from a Prometheus text
// endpoint.
func promCounter(base, name string) (int64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			return int64(f), err
		}
	}
	return 0, fmt.Errorf("/metrics has no %s", name)
}

// killProbe is the kill-chain model's timing against an idle cluster.
type killProbe struct {
	execUS, usPerStep float64
	steps             int
}

// attackProbes times each registry step as a one-step campaign against
// an idle enhanced cluster of the experiment geometry, session setup
// included, and the full kill chain the same way. The enhanced profile
// must concede no non-residual leak to any of them.
func (e *runEnv) attackProbes() (map[string]float64, killProbe, error) {
	cl, err := core.NewWithProfile(core.EnhancedProfile(), core.WithTopology(fleet.ExperimentTopology()))
	if err != nil {
		return nil, killProbe{}, err
	}
	var rng metrics.RNG
	timeSpec := func(spec attack.Spec) (float64, int, error) {
		comp, err := spec.Compile()
		if err != nil {
			return 0, 0, err
		}
		var ns int64
		steps := 0
		for rep := 0; rep < probeReps; rep++ {
			if err := cl.Reset(); err != nil {
				return 0, 0, err
			}
			rng.Reseed(metrics.StreamSeed(e.master, uint64(rep)))
			t := time.Now()
			out, _, err := comp.Execute(cl, &rng, 4000)
			ns += time.Since(t).Nanoseconds()
			if err != nil {
				return 0, 0, err
			}
			if out.Success {
				e.chk.failf("attack probe %q leaked %v against the enhanced profile", spec.Model, out.StepLeaks)
			}
			steps += out.Steps
		}
		return float64(ns) / 1e3 / probeReps, steps, nil
	}
	stepUS := map[string]float64{}
	for _, name := range attack.StepNames() {
		us, _, err := timeSpec(attack.Spec{Model: "probe-" + name, Steps: []string{name}})
		if err != nil {
			return nil, killProbe{}, err
		}
		stepUS[name] = us
	}
	chain, err := attack.ModelByName("kill-chain")
	if err != nil {
		return nil, killProbe{}, err
	}
	us, steps, err := timeSpec(chain)
	if err != nil {
		return nil, killProbe{}, err
	}
	return stepUS, killProbe{execUS: us, usPerStep: us * probeReps / float64(steps), steps: steps}, nil
}
