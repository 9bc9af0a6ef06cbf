package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
)

// Parallelism of the measured program: no more workers or shards than
// the 2 CPUs the workloads are sized for.
const (
	batchWorkers  = 2
	serviceShards = 2
	setupRepeats  = 21
	minCampaigns  = 3
	// campaignsPerDaemon is how many campaigns one fleetd serves.
	campaignsPerDaemon = 20
	minDaemons         = 2
	childTimeout       = 150 * time.Second
)

// e2eResult accumulates the end-to-end measurements of one run.
//
// Values are medians over the run's campaigns or processes, so a short
// stall of the machine, or a garbage collection that happens to land at
// a process's peak, moves a few samples rather than the reported value.
type e2eResult struct {
	campaignTrials int       // trials per campaign
	attempted      int       // trials attempted
	failed         int       // trials of failed, refused or mismatching campaigns
	resultS        []float64 // per campaign: submit (or launch) until results are in hand
	cpuMSPerTrial  []float64 // per measured process: its user+sys CPU over its trials
	peakRSSMB      []float64 // per measured process: its peak RSS, shards included
	setupS         []float64
}

func (r *e2eResult) rows() []metricRow {
	rows := []metricRow{
		{name: "trials_per_s", value: float64(r.campaignTrials) / median(r.resultS), unit: "1/s", samples: len(r.resultS)},
		{name: "cpu_ms_per_trial", value: median(r.cpuMSPerTrial), unit: "ms", samples: len(r.cpuMSPerTrial)},
		{name: "peak_rss_mb", value: median(r.peakRSSMB), unit: "MB", samples: len(r.peakRSSMB)},
		{name: "setup_s", value: median(r.setupS), unit: "s", samples: len(r.setupS)},
		{name: "result_s_p50", value: quantile(r.resultS, 0.5), unit: "s", samples: len(r.resultS)},
		{name: "result_s_p90", value: quantile(r.resultS, 0.9), unit: "s", samples: len(r.resultS)},
	}
	return rows
}

// childRun is one finished child process.
type childRun struct {
	wall   time.Duration
	cpu    time.Duration
	rssKB  int64
	stdout []byte
}

// runChild runs a binary to completion and returns its output and
// resource usage. The usage comes from wait4, so it covers the child
// and every descendant it waited for.
func runChild(bin string, args ...string) (*childRun, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %v: %s", filepath.Base(bin), strings.Join(args, " "), err, lastLines(errb.String(), 5))
	}
	cpu, rss := usage(cmd.ProcessState)
	return &childRun{wall: wall, cpu: cpu, rssKB: rss, stdout: out.Bytes()}, nil
}

func usage(ps *os.ProcessState) (time.Duration, int64) {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return ps.UserTime() + ps.SystemTime(), 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), ru.Maxrss
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, " | ")
}

// reference runs the campaign once on one worker: the bytes every
// measured run must reproduce.
func (e *runEnv) reference() ([]byte, error) {
	ref, err := runChild(e.fleetrun(), "-campaign", e.campPath, "-seed", fmt.Sprint(e.master), "-workers", "1", "-json")
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	e.checkResult(ref.stdout)
	h := fnv.New64a()
	h.Write(ref.stdout)
	return ref.stdout, e.recordDeterminism("result", map[string]string{"result_fnv64a": fmt.Sprintf("%016x", h.Sum64())})
}

// checkResult applies the campaign-level correctness gate to result
// JSON: no failed trials, every replication present, every job drained
// where the horizon is sized to drain, and on attacked scenarios the
// paper's E16/E17 diagonal — the enhanced profile concedes no
// non-residual leak to any attacker model, and the kill chain succeeds
// against every single-measure ablation.
func (e *runEnv) checkResult(data []byte) {
	var res fleet.CampaignResult
	if err := json.Unmarshal(data, &res); err != nil {
		e.chk.failf("result does not decode: %v", err)
		return
	}
	if len(res.Scenarios) != len(e.camp.Scenarios) {
		e.chk.failf("result has %d scenarios, campaign %d", len(res.Scenarios), len(e.camp.Scenarios))
		return
	}
	for i, sr := range res.Scenarios {
		spec := e.camp.Scenarios[i]
		switch {
		case sr.Name != spec.Name:
			e.chk.failf("scenario %d is %q, want %q", i, sr.Name, spec.Name)
		case sr.Failures != 0:
			e.chk.failf("scenario %q: %d failed trials", sr.Name, sr.Failures)
		case sr.Replications != spec.Replications:
			e.chk.failf("scenario %q: %d replications, want %d", sr.Name, sr.Replications, spec.Replications)
		case sr.Unfinished != 0:
			e.chk.failf("scenario %q: %d jobs unfinished at the horizon", sr.Name, sr.Unfinished)
		}
		if spec.Attack == nil || spec.Profile != "enhanced" {
			continue
		}
		if sr.Attack == nil {
			e.chk.failf("scenario %q: attacked but no attack aggregate", sr.Name)
			continue
		}
		switch len(spec.Ablate) {
		case 0:
			if sr.Attack.Successes != 0 || len(sr.Attack.StepLeaks) != 0 {
				e.chk.failf("scenario %q: enhanced profile leaked %v (%d successes)", sr.Name, sr.Attack.StepLeaks, sr.Attack.Successes)
			}
		case 1:
			if spec.Attack.Model == "kill-chain" && sr.Attack.Successes != sr.Attack.Trials {
				e.chk.failf("scenario %q: kill chain succeeded in %d of %d trials against the ablation", sr.Name, sr.Attack.Successes, sr.Attack.Trials)
			}
		}
	}
}

// setupBatch times what precedes a batch campaign's first trial:
// decoding the campaign file and building one cluster per scenario.
func (e *runEnv) setupBatch() ([]float64, error) {
	var out []float64
	for i := 0; i < setupRepeats; i++ {
		// Each repetition starts from a collected heap, as a fresh
		// fleetrun process does, rather than from the last one's garbage.
		runtime.GC()
		start := time.Now()
		f, err := os.Open(e.campPath)
		if err != nil {
			return nil, err
		}
		c, err := fleet.DecodeCampaign(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		for _, s := range c.Scenarios {
			cfg, topo, err := resolveScenario(s)
			if err != nil {
				return nil, err
			}
			if _, err := core.New(cfg, topo); err != nil {
				return nil, err
			}
		}
		out = append(out, time.Since(start).Seconds())
	}
	return out, nil
}

// measureBatch runs the campaign through fleetrun at batchWorkers
// workers, back to back, for the run's seconds; every run's bytes must
// equal the one-worker reference.
func measureBatch(e *runEnv) (*e2eResult, error) {
	res := &e2eResult{campaignTrials: e.camp.Trials()}
	var err error
	if res.setupS, err = e.setupBatch(); err != nil {
		return nil, err
	}
	ref, err := e.reference()
	if err != nil {
		return nil, err
	}
	trials := res.campaignTrials
	args := []string{"-campaign", e.campPath, "-seed", fmt.Sprint(e.master), "-workers", fmt.Sprint(batchWorkers), "-json"}
	start := time.Now()
	for n := 0; n < minCampaigns || !e.elapsed(start); n++ {
		res.attempted += trials
		cr, err := runChild(e.fleetrun(), args...)
		if err != nil {
			e.chk.failf("%v", err)
			res.failed += trials
			continue
		}
		if !bytes.Equal(cr.stdout, ref) {
			e.chk.failf("fleetrun -workers %d result differs from the 1-worker reference", batchWorkers)
			res.failed += trials
			continue
		}
		res.resultS = append(res.resultS, cr.wall.Seconds())
		res.cpuMSPerTrial = append(res.cpuMSPerTrial, float64(cr.cpu.Nanoseconds())/1e6/float64(trials))
		res.peakRSSMB = append(res.peakRSSMB, float64(cr.rssKB)/1024)
	}
	return res, nil
}

// fleetdProc is a running fleetd.
type fleetdProc struct {
	cmd  *exec.Cmd
	base string // http://host:port
}

// startFleetd launches fleetd on an ephemeral port with fleetrun exec
// shards and waits until /healthz answers 200.
func (e *runEnv) startFleetd(dir string) (*fleetdProc, time.Duration, error) {
	start := time.Now()
	cmd := exec.Command(e.fleetd(), "-addr", "127.0.0.1:0", "-dir", dir,
		"-exec", e.fleetrun(), "-shards", fmt.Sprint(serviceShards), "-workers", "1")
	// Its own process group, so kill also reaches the shard processes.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	p := &fleetdProc{cmd: cmd}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "fleetd: listening on ")
	if err != nil || !ok {
		p.kill()
		return nil, 0, fmt.Errorf("fleetd did not report its address (read %q: %v)", line, err)
	}
	go io.Copy(io.Discard, stdout)
	p.base = "http://" + addr
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(p.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, time.Since(start), nil
			}
		}
		if time.Now().After(deadline) {
			p.kill()
			return nil, 0, fmt.Errorf("fleetd /healthz not ready after 30s")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// kill stops fleetd and any shard process at once.
func (p *fleetdProc) kill() {
	_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
	_ = p.cmd.Wait()
}

// stop drains fleetd with SIGTERM and returns its resource usage, which
// includes every shard process it waited for.
func (p *fleetdProc) stop() (time.Duration, int64, error) {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.kill()
		return 0, 0, err
	}
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return 0, 0, fmt.Errorf("fleetd exit: %w", err)
		}
	case <-time.After(60 * time.Second):
		_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
		<-done
		return 0, 0, fmt.Errorf("fleetd did not drain within 60s")
	}
	cpu, rss := usage(p.cmd.ProcessState)
	return cpu, rss, nil
}

// submission is one campaign's trip through the service.
type submission struct {
	resultS      float64 // submit until the result bytes are fetched
	queueWaitS   float64 // admission (the 202) until the status leaves "queued"; traced runs only
	firstScenS   float64 // submit until the first /stream line
	id           string
	result       []byte
	refusedCode  int // non-202 answer to the submit, 0 if accepted
	finalState   string
	resultStatus int
}

// submit sends the campaign to fleetd, follows /stream to completion and
// fetches /results. With watchQueue it also polls the status until the
// campaign leaves the queue.
func (e *runEnv) submit(base string, watchQueue bool) (*submission, error) {
	body, err := json.Marshal(map[string]any{"campaign": json.RawMessage(e.campJSON), "seed": e.master})
	if err != nil {
		return nil, err
	}
	sub := &submission{}
	start := time.Now()
	resp, err := http.Post(base+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	ackBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusAccepted {
		sub.refusedCode = resp.StatusCode
		return sub, nil
	}
	var ack struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(ackBody, &ack); err != nil {
		return nil, err
	}
	sub.id = ack.ID
	admitted := time.Now()
	if watchQueue {
		for {
			st, err := http.Get(base + "/campaigns/" + ack.ID)
			if err != nil {
				return nil, err
			}
			var s struct {
				State string `json:"state"`
			}
			err = json.NewDecoder(st.Body).Decode(&s)
			st.Body.Close()
			if err != nil {
				return nil, err
			}
			if s.State != "queued" {
				sub.queueWaitS = time.Since(admitted).Seconds()
				break
			}
		}
	}
	stream, err := http.Get(base + "/campaigns/" + ack.ID + "/stream")
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(stream.Body)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		if sub.firstScenS == 0 {
			sub.firstScenS = time.Since(start).Seconds()
		}
		var line struct {
			Done  bool   `json:"done"`
			State string `json:"state"`
		}
		if json.Unmarshal(sc.Bytes(), &line) == nil && line.Done {
			sub.finalState = line.State
			break
		}
	}
	stream.Body.Close()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	rr, err := http.Get(base + "/campaigns/" + ack.ID + "/results")
	if err != nil {
		return nil, err
	}
	sub.result, err = io.ReadAll(rr.Body)
	rr.Body.Close()
	if err != nil {
		return nil, err
	}
	sub.resultStatus = rr.StatusCode
	sub.resultS = time.Since(start).Seconds()
	return sub, nil
}

// verify checks one service answer against the reference bytes.
func (e *runEnv) verify(sub *submission, ref []byte) bool {
	switch {
	case sub.refusedCode != 0:
		e.chk.failf("fleetd refused the campaign with HTTP %d", sub.refusedCode)
	case sub.finalState != "done" || sub.resultStatus != http.StatusOK:
		e.chk.failf("fleetd campaign %s ended %q (results HTTP %d)", sub.id, sub.finalState, sub.resultStatus)
	case !bytes.Equal(sub.result, ref):
		e.chk.failf("fleetd campaign %s result differs from the in-process fleetrun result", sub.id)
	default:
		return true
	}
	return false
}

// measureService is a closed loop with one client and one campaign in
// flight against fleetd with fleetrun exec shards. fleetd keeps every
// finished campaign in memory, so each daemon serves a fixed number of
// campaigns and the run starts daemons until its seconds are used: its
// peak RSS then does not depend on how many campaigns fit in a run.
// Every daemon launch is a set-up sample.
func measureService(e *runEnv) (*e2eResult, error) {
	res := &e2eResult{campaignTrials: e.camp.Trials()}
	ref, err := e.reference()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for d := 0; d < minDaemons || !e.elapsed(start); d++ {
		p, setup, err := e.startFleetd(filepath.Join(e.dir, fmt.Sprintf("fleetd-%d", d)))
		if err != nil {
			return nil, err
		}
		res.setupS = append(res.setupS, setup.Seconds())
		done := 0
		for i := 0; i < campaignsPerDaemon; i++ {
			res.attempted += res.campaignTrials
			sub, err := e.submit(p.base, false)
			if err != nil {
				p.kill()
				return nil, err
			}
			if !e.verify(sub, ref) {
				res.failed += res.campaignTrials
				continue
			}
			res.resultS = append(res.resultS, sub.resultS)
			done += res.campaignTrials
		}
		cpu, rss, err := p.stop()
		if err != nil {
			return nil, err
		}
		if done > 0 {
			res.cpuMSPerTrial = append(res.cpuMSPerTrial, float64(cpu.Nanoseconds())/1e6/float64(done))
		}
		res.peakRSSMB = append(res.peakRSSMB, float64(rss)/1024)
	}
	return res, nil
}
