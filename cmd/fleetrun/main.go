// Command fleetrun executes simulation campaigns: grids of
// independent trials (scenarios × replications) sharded across
// worker goroutines, with deterministic per-trial seeding, pooled
// per-worker cluster reuse and mergeable statistics (internal/fleet).
//
// Run a built-in preset, or a campaign file authored as JSON:
//
//	go run ./cmd/fleetrun -preset e4-policy-grid -seed 42 -workers 8
//	go run ./cmd/fleetrun -campaign mycampaign.json
//
// The determinism contract: for a fixed campaign and -seed, the
// output — including -json bytes — is identical for every -workers
// value AND for -pool=true vs -pool=false. CI enforces both by
// diffing worker counts and pooling modes.
//
// Campaigns are fault-tolerant. With -checkpoint, a resumable
// sidecar is written atomically every -every completed trials and on
// exit, so a killed run loses at most one interval of work; -resume
// validates the sidecar against the campaign and seed, skips the
// completed trials, and produces byte-identical final output to a
// never-interrupted run (CI kills a run mid-campaign and cmps):
//
//	go run ./cmd/fleetrun -preset e16-ablation-drain -checkpoint ck.json -every 1 -json > out.json
//	go run ./cmd/fleetrun -preset e16-ablation-drain -resume ck.json -json > out.json
//
// SIGINT/SIGTERM checkpoint then exit with code 3; -timeout <dur>
// bounds a wedged campaign the same way with code 4. A panicking
// trial is retried deterministically and degrades to a counted
// failure instead of aborting (stderr reports each panic). -chaos
// loads a fleet.FaultPlan JSON that injects panics, checkpoint-write
// failures, worker delays and a deterministic mid-run kill — the
// harness CI uses to gate the failure paths. -out and checkpoint
// writes are atomic (temp + rename): an interrupted run never leaves
// a truncated artifact.
//
// Campaign hot spots are measurable without a custom harness:
//
//	go run ./cmd/fleetrun -preset e4-policy-grid -cpuprofile cpu.pprof
//	go tool pprof cpu.pprof
//
// -blockprofile and -mutexprofile capture contention the same way
// (both bracket exactly the campaign, like -cpuprofile), and the
// observability surfaces are deterministic by contract: -trace writes
// one NDJSON span per trial phase — identity and tick bounds fixed by
// (campaign, seed); only wall_ns varies — plus a per-scenario phase
// cost table on stderr, and -metrics dumps the campaign's counter
// registry as JSON. CI gates that enabling either changes no result
// byte (see DESIGN.md §11):
//
//	go run ./cmd/fleetrun -preset smoke -trace trace.ndjson -metrics metrics.json
//
// Author campaign files by dumping a preset as a template:
//
//	go run ./cmd/fleetrun -preset smoke -dump > mycampaign.json
//
// -failures routes the structured trial-failure ledger (stable
// fields only; stacks stay stderr-only) to a JSON artifact, so a
// supervisor can collect failures without scraping stderr.
//
// Shard mode (-shard i/n) is how fleetd re-execs fleetrun as a
// supervised worker: the process runs only shard i of the campaign's
// n-shard plan (internal/fleet/shard.Plan — both sides compute the
// same split), writes its checkpoint sidecar as the result artifact
// (-checkpoint is required; there is no stdout result), and beats a
// -heartbeat file after every completed trial. A ShardKill chaos
// fault makes the process SIGKILL itself — real abrupt death, which
// is the point.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/fleet/shard"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// Exit codes. Interruption is distinct from failure so CI and
// wrappers can tell "checkpointed, resume me" from "broken".
const (
	exitErr         = 1 // invalid input, trial error, I/O failure
	exitInterrupted = 3 // SIGINT/SIGTERM (or chaos kill): checkpointed if -checkpoint was set
	exitTimeout     = 4 // -timeout deadline hit: checkpointed if -checkpoint was set
)

// cliConfig is the parsed flag set.
type cliConfig struct {
	preset       string
	campaignPath string
	list         bool
	dump         bool
	workers      int
	seed         uint64
	pool         bool
	jsonOut      bool
	out          string
	cpuprofile   string
	memprofile   string
	blockprofile string
	mutexprofile string
	trace        string
	metricsOut   string
	checkpoint   string
	every        int
	resume       string
	chaos        string
	timeout      time.Duration
	failures     string
	shard        string
	shardAttempt int
	heartbeat    string
}

func main() {
	var cfg cliConfig
	flag.StringVar(&cfg.preset, "preset", "", "run a built-in campaign preset (see -list)")
	flag.StringVar(&cfg.campaignPath, "campaign", "", "run a campaign JSON file")
	flag.BoolVar(&cfg.list, "list", false, "list the built-in presets and exit")
	flag.BoolVar(&cfg.dump, "dump", false, "print the selected campaign as JSON (an authoring template) and exit")
	flag.IntVar(&cfg.workers, "workers", 0, "worker goroutines (0 = GOMAXPROCS); changes wall-clock time, never results")
	flag.Uint64Var(&cfg.seed, "seed", 1, "campaign master seed; every trial stream derives from it")
	flag.BoolVar(&cfg.pool, "pool", true, "reuse one cluster per (worker, scenario) via Reset; -pool=false builds every trial fresh — wall-clock only, never results")
	flag.BoolVar(&cfg.jsonOut, "json", false, "print the result record as JSON instead of the summary table")
	flag.StringVar(&cfg.out, "out", "", "also write the result JSON to this path (atomically: temp + rename)")
	flag.StringVar(&cfg.cpuprofile, "cpuprofile", "", "write a CPU profile of the campaign run to this path")
	flag.StringVar(&cfg.memprofile, "memprofile", "", "write an allocation profile (after the run) to this path")
	flag.StringVar(&cfg.blockprofile, "blockprofile", "", "write a goroutine blocking profile of the campaign run to this path")
	flag.StringVar(&cfg.mutexprofile, "mutexprofile", "", "write a mutex contention profile of the campaign run to this path")
	flag.StringVar(&cfg.trace, "trace", "", "write the deterministic trial-phase trace (NDJSON spans) to this path and print the phase cost table")
	flag.StringVar(&cfg.metricsOut, "metrics", "", "write the campaign metrics registry (counters, gauges, histograms) as JSON to this path")
	flag.StringVar(&cfg.checkpoint, "checkpoint", "", "write a resumable checkpoint sidecar to this path every -every trials and on exit")
	flag.IntVar(&cfg.every, "every", 0, fmt.Sprintf("completed-trial cadence of periodic checkpoint writes (0 = %d)", fleet.DefaultCheckpointEvery))
	flag.StringVar(&cfg.resume, "resume", "", "resume from this checkpoint sidecar (must match the campaign and -seed; completed trials are skipped)")
	flag.StringVar(&cfg.chaos, "chaos", "", "inject faults from this fleet.FaultPlan JSON file (testing the failure paths; never use for perf records)")
	flag.DurationVar(&cfg.timeout, "timeout", 0, fmt.Sprintf("bound the campaign: after this duration, checkpoint and exit with code %d (0 = no bound)", exitTimeout))
	flag.StringVar(&cfg.failures, "failures", "", "write the structured trial-failure ledger to this JSON path (stable fields only; stacks remain stderr-only)")
	flag.StringVar(&cfg.shard, "shard", "", "run as shard i of an n-shard plan, as \"i/n\" (fleetd worker mode; requires -checkpoint)")
	flag.IntVar(&cfg.shardAttempt, "shard-attempt", 1, "supervisor attempt number in shard mode (keys shard-level chaos faults)")
	flag.StringVar(&cfg.heartbeat, "heartbeat", "", "write a liveness heartbeat to this path after every completed trial (shard mode)")
	flag.Parse()

	code, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetrun: %v\n", err)
		var ie *fleet.InterruptedError
		if errors.As(err, &ie) && ie.Checkpoint != "" {
			fmt.Fprintf(os.Stderr, "fleetrun: resume with -resume %s\n", ie.Checkpoint)
		}
	}
	if code != 0 {
		os.Exit(code)
	}
}

func run(cfg cliConfig) (int, error) {
	if cfg.list {
		for _, c := range fleet.Presets() {
			fmt.Printf("%-20s %d scenarios, %d trials\n", c.Name, len(c.Scenarios), c.Trials())
		}
		return 0, nil
	}

	var camp fleet.Campaign
	switch {
	case cfg.preset != "" && cfg.campaignPath != "":
		return exitErr, fmt.Errorf("-preset and -campaign are mutually exclusive")
	case cfg.preset != "":
		var err error
		if camp, err = fleet.PresetByName(cfg.preset); err != nil {
			return exitErr, err
		}
	case cfg.campaignPath != "":
		f, err := os.Open(cfg.campaignPath)
		if err != nil {
			return exitErr, err
		}
		defer f.Close()
		if camp, err = fleet.DecodeCampaign(f); err != nil {
			return exitErr, err
		}
	default:
		return exitErr, fmt.Errorf("nothing to run: pass -preset <name> (see -list) or -campaign <file.json>")
	}

	if cfg.dump {
		data, err := fleet.EncodeCampaign(camp)
		if err != nil {
			return exitErr, err
		}
		if _, err := os.Stdout.Write(data); err != nil {
			return exitErr, err
		}
		return 0, nil
	}

	var faults *fleet.FaultPlan
	if cfg.chaos != "" {
		f, err := os.Open(cfg.chaos)
		if err != nil {
			return exitErr, err
		}
		faults, err = fleet.DecodeFaultPlan(f)
		f.Close()
		if err != nil {
			return exitErr, err
		}
	}

	var resumeFrom *fleet.Checkpoint
	if cfg.resume != "" {
		ck, err := fleet.LoadCheckpoint(cfg.resume)
		if err != nil {
			return exitErr, err
		}
		resumeFrom = ck
	}

	// Signal/timeout plumbing: the first SIGINT/SIGTERM — or the
	// -timeout deadline — trips the run's Interrupt channel, which
	// drains in-flight trials and checkpoints; a second signal kills
	// immediately via the restored default disposition. cause records
	// which tripwire fired so the exit code distinguishes them.
	interrupt := make(chan struct{})
	finished := make(chan struct{})
	defer close(finished)
	var cause atomic.Int32
	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, os.Interrupt, syscall.SIGTERM)
	var deadline <-chan time.Time
	if cfg.timeout > 0 {
		deadline = time.After(cfg.timeout)
	}
	go func() {
		defer signal.Stop(sigC)
		select {
		case sig := <-sigC:
			fmt.Fprintf(os.Stderr, "fleetrun: %v: draining in-flight trials and checkpointing\n", sig)
			cause.Store(exitInterrupted)
			close(interrupt)
		case <-deadline:
			fmt.Fprintf(os.Stderr, "fleetrun: -timeout %v elapsed: draining in-flight trials and checkpointing\n", cfg.timeout)
			cause.Store(exitTimeout)
			close(interrupt)
		case <-finished:
		}
	}()

	// Shard mode executes the worker's slice and leaves its result in
	// the checkpoint sidecar; the profile/output plumbing below is for
	// whole-campaign runs only.
	if cfg.shard != "" {
		return runShardMode(cfg, camp, faults, resumeFrom, interrupt, &cause)
	}

	// The profiles bracket exactly the campaign execution: flag
	// parsing, campaign decoding and result rendering stay outside, so
	// each profile answers "where do trial cycles (or stalls) go".
	if cfg.cpuprofile != "" {
		f, err := os.Create(cfg.cpuprofile)
		if err != nil {
			return exitErr, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return exitErr, fmt.Errorf("cpuprofile: %v", err)
		}
	}
	var blockF, mutexF *os.File
	if cfg.blockprofile != "" {
		f, err := os.Create(cfg.blockprofile)
		if err != nil {
			return exitErr, err
		}
		defer f.Close()
		blockF = f
		runtime.SetBlockProfileRate(1)
	}
	if cfg.mutexprofile != "" {
		f, err := os.Create(cfg.mutexprofile)
		if err != nil {
			return exitErr, err
		}
		defer f.Close()
		mutexF = f
		runtime.SetMutexProfileFraction(1)
	}

	// The observability surfaces ride the same Options; both are nil
	// unless asked for, which keeps the default hot path handle-free.
	// The trace accumulates in memory and lands atomically after the
	// run — a killed run never leaves a truncated NDJSON artifact.
	var reg *obs.Registry
	if cfg.metricsOut != "" {
		reg = obs.NewRegistry()
	}
	var traceBuf bytes.Buffer
	var tracer *obs.Tracer
	if cfg.trace != "" {
		tracer = obs.NewTracer(&traceBuf)
	}

	res, err := fleet.Run(camp, fleet.Options{
		Workers:         cfg.workers,
		Seed:            cfg.seed,
		DisablePooling:  !cfg.pool,
		CheckpointPath:  cfg.checkpoint,
		CheckpointEvery: cfg.every,
		ResumeFrom:      resumeFrom,
		Interrupt:       interrupt,
		Faults:          faults,
		Metrics:         reg,
		Tracer:          tracer,
	})
	if cfg.cpuprofile != "" {
		pprof.StopCPUProfile() // stop before rendering so the profile holds trial cycles only
	}
	if blockF != nil {
		runtime.SetBlockProfileRate(0)
		if perr := pprof.Lookup("block").WriteTo(blockF, 0); perr != nil && err == nil {
			return exitErr, fmt.Errorf("blockprofile: %v", perr)
		}
	}
	if mutexF != nil {
		runtime.SetMutexProfileFraction(0)
		if perr := pprof.Lookup("mutex").WriteTo(mutexF, 0); perr != nil && err == nil {
			return exitErr, fmt.Errorf("mutexprofile: %v", perr)
		}
	}
	if err != nil {
		return exitCode(err, &cause), err
	}

	if cfg.memprofile != "" {
		f, err := os.Create(cfg.memprofile)
		if err != nil {
			return exitErr, err
		}
		defer f.Close()
		runtime.GC() // report live objects, not transient garbage
		if err := pprof.WriteHeapProfile(f); err != nil {
			return exitErr, fmt.Errorf("memprofile: %v", err)
		}
	}

	// Observability artifacts land atomically, and the human-facing
	// phase table goes to stderr so stdout stays the canonical result.
	if cfg.trace != "" {
		if werr := fleet.WriteFileAtomic(cfg.trace, traceBuf.Bytes()); werr != nil {
			return exitErr, fmt.Errorf("writing -trace artifact: %w", werr)
		}
		fmt.Fprintln(os.Stderr, phaseCostTable(res.Spans).Render())
	}
	if reg != nil {
		data, merr := reg.Snapshot().JSON()
		if merr != nil {
			return exitErr, merr
		}
		if werr := fleet.WriteFileAtomic(cfg.metricsOut, data); werr != nil {
			return exitErr, fmt.Errorf("writing -metrics artifact: %w", werr)
		}
	}

	// Failure-model bookkeeping goes to stderr, never into the
	// canonical result bytes; -failures additionally persists the
	// stable fields as a structured artifact.
	reportFailures(res.TrialFailures)
	if cfg.failures != "" {
		if err := fleet.WriteFailures(cfg.failures, camp.Name, cfg.seed, res.TrialFailures); err != nil {
			return exitErr, fmt.Errorf("writing -failures artifact: %w", err)
		}
	}
	if res.CheckpointWriteFailures > 0 {
		fmt.Fprintf(os.Stderr, "fleetrun: %d checkpoint write(s) failed and were retried at the next interval\n", res.CheckpointWriteFailures)
	}

	data, err := res.JSON()
	if err != nil {
		return exitErr, err
	}
	if cfg.out != "" {
		if err := fleet.WriteFileAtomic(cfg.out, data); err != nil {
			return exitErr, err
		}
	}
	if cfg.jsonOut {
		if _, err := os.Stdout.Write(data); err != nil {
			return exitErr, err
		}
		return 0, nil
	}
	fmt.Println(res.Table().Render())
	return 0, nil
}

// exitCode maps a failed run to the process exit code: an interrupted
// run exits with the tripwire that fired (signal or -timeout), or with
// exitInterrupted when a chaos kill_after_trials fault stopped it.
func exitCode(err error, cause *atomic.Int32) int {
	var ie *fleet.InterruptedError
	if !errors.As(err, &ie) {
		return exitErr
	}
	if code := int(cause.Load()); code != 0 {
		return code
	}
	return exitInterrupted
}

// phaseCostTable renders the per-scenario phase cost breakdown of a
// traced run. Counts and tick totals are deterministic for a fixed
// (campaign, seed); only the wall columns vary run to run.
func phaseCostTable(spans []obs.Span) *metrics.Table {
	t := metrics.NewTable("trial phase costs", "scenario", "phase", "spans", "ticks", "mean wall", "total wall")
	for _, pc := range obs.AggregatePhases(spans) {
		scenario := pc.Scenario
		if scenario == "" {
			scenario = "(campaign)"
		}
		t.AddRow(scenario, pc.Phase, pc.Count, pc.Ticks,
			time.Duration(pc.MeanWallNS()).Round(time.Microsecond).String(),
			time.Duration(pc.WallNS).Round(time.Microsecond).String())
	}
	t.AddNote("span identity and tick totals are deterministic; wall columns are not (DESIGN.md §11)")
	return t
}

// reportFailures narrates the trial-failure ledger on stderr — the
// only place stack-free panic bookkeeping is human-visible by
// default.
func reportFailures(fails []fleet.TrialFailure) {
	for _, tf := range fails {
		verdict := "recovered by retry"
		if tf.Terminal {
			verdict = "TERMINAL: degraded to a counted failure"
		}
		fmt.Fprintf(os.Stderr, "fleetrun: trial panic: scenario %q replication %d attempt %d (%s): %s\n",
			tf.Scenario, tf.Replication, tf.Attempt, verdict, tf.Panic)
	}
}

// runShardMode is the fleetd worker: execute shard i of the n-shard
// plan, leave the result in the checkpoint sidecar, beat a heartbeat
// file, and — under a ShardKill fault — SIGKILL ourselves so the
// supervisor sees a genuinely abrupt death.
func runShardMode(cfg cliConfig, camp fleet.Campaign, faults *fleet.FaultPlan, resumeFrom *fleet.Checkpoint, interrupt <-chan struct{}, cause *atomic.Int32) (int, error) {
	var idx, n int
	if _, err := fmt.Sscanf(cfg.shard, "%d/%d", &idx, &n); err != nil {
		return exitErr, fmt.Errorf("-shard wants \"i/n\", got %q", cfg.shard)
	}
	if cfg.checkpoint == "" {
		return exitErr, fmt.Errorf("-shard requires -checkpoint (the sidecar is the shard's result artifact)")
	}
	// Both sides of the re-exec compute the same plan from (campaign,
	// n); the worker needs only its index.
	plan, err := shard.Plan(camp, n)
	if err != nil {
		return exitErr, err
	}
	if idx < 0 || idx >= n {
		return exitErr, fmt.Errorf("-shard index %d outside [0, %d)", idx, n)
	}
	var progress func(int)
	if cfg.heartbeat != "" {
		seq := 0
		progress = func(completed int) {
			seq++
			if err := shard.WriteHeartbeat(cfg.heartbeat, shard.Heartbeat{
				Shard: idx, Attempt: cfg.shardAttempt, Completed: completed, Seq: seq,
			}); err != nil {
				fmt.Fprintf(os.Stderr, "fleetrun: heartbeat write failed: %v\n", err)
			}
		}
	}
	ck, fails, err := fleet.RunShard(camp, fleet.Options{
		Workers:         cfg.workers,
		Seed:            cfg.seed,
		DisablePooling:  !cfg.pool,
		CheckpointPath:  cfg.checkpoint,
		CheckpointEvery: cfg.every,
		ResumeFrom:      resumeFrom,
		Interrupt:       interrupt,
		Faults:          faults,
		Progress:        progress,
	}, fleet.ShardRun{
		Index: idx, Count: n, Attempt: cfg.shardAttempt, Ranges: plan[idx].Ranges,
		Die: func() {
			// A real SIGKILL, not an error return: the supervisor must
			// observe abrupt process death. The empty select holds the
			// goroutine until delivery lands.
			_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
			select {}
		},
	})
	reportFailures(fails)
	// The ledger is written even for an interrupted shard: a partial
	// artifact beats scraping stderr, and the supervisor tolerates its
	// absence either way.
	if cfg.failures != "" {
		if werr := fleet.WriteFailures(cfg.failures, camp.Name, cfg.seed, fails); werr != nil {
			fmt.Fprintf(os.Stderr, "fleetrun: writing -failures artifact: %v\n", werr)
		}
	}
	if err != nil {
		return exitCode(err, cause), err
	}
	fmt.Fprintf(os.Stderr, "fleetrun: shard %d/%d complete: %d trials in sidecar %s\n", idx, n, ck.Completed, cfg.checkpoint)
	return 0, nil
}
