// Command perfbench is the repository's benchmark. It generates one of
// four campaign workloads from a seed, runs it through the repository's
// own binaries (fleetrun, or fleetd with fleetrun exec shards), checks
// every result, and prints the end-to-end metrics; with -trace 1 it
// instead replays the workload through the public calls of each layer
// and prints the per-layer metrics. run.sh builds the binaries and
// invokes it:
//
//	bash perfbench/run.sh --workload drain --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The lines before it
// are the same numbers as a table, with sample counts.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/fleet"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// checker counts correctness problems. Any problem makes the run
// incorrect; each is printed to standard error.
type checker struct {
	problems int
}

func (c *checker) failf(format string, args ...any) {
	c.problems++
	fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", fmt.Sprintf(format, args...))
}

// runEnv is what every measurement needs: the binaries, a private
// scratch directory inside the checkout, and the generated inputs.
type runEnv struct {
	bin      string // directory holding fleetrun and fleetd
	dir      string // this run's scratch directory
	state    string // directory of per-seed determinism records
	w        workloadSpec
	seed     uint64 // benchmark seed
	master   uint64 // fleet master seed derived from seed
	camp     fleet.Campaign
	campPath string
	campJSON []byte
	seconds  float64
	chk      *checker
	notes    []string // table lines printed before the result
}

func (e *runEnv) fleetrun() string { return filepath.Join(e.bin, "fleetrun") }
func (e *runEnv) fleetd() string   { return filepath.Join(e.bin, "fleetd") }

func (e *runEnv) notef(format string, args ...any) {
	e.notes = append(e.notes, fmt.Sprintf(format, args...))
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: drain, redteam, population or service")
		seed    = flag.Uint64("seed", 1, "workload seed; the same seed generates the same campaign")
		seconds = flag.Int("seconds", 10, "measurement length of one run")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced replay")
		bin     = flag.String("bin", "", "directory holding the fleetrun and fleetd binaries")
		work    = flag.String("work", "", "scratch directory for campaign files and sidecars")
	)
	flag.Parse()
	rep, err := run(*name, *seed, *seconds, *trace, *bin, *work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(name string, seed uint64, seconds, trace int, bin, work string) (*report, error) {
	w, err := workloadByName(name)
	if err != nil {
		return nil, err
	}
	if seconds < 1 {
		return nil, fmt.Errorf("-seconds must be >= 1 (got %d)", seconds)
	}
	if trace != 0 && trace != 1 {
		return nil, fmt.Errorf("-trace must be 0 or 1 (got %d)", trace)
	}
	if bin == "" || work == "" {
		return nil, errors.New("-bin and -work are required (run through perfbench/run.sh)")
	}
	for _, b := range []string{"fleetrun", "fleetd"} {
		if _, err := os.Stat(filepath.Join(bin, b)); err != nil {
			return nil, fmt.Errorf("binary missing: %w", err)
		}
	}
	dir := filepath.Join(work, fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	camp := w.gen(seed)
	data, err := fleet.EncodeCampaign(camp)
	if err != nil {
		return nil, err
	}
	// The program receives the campaign as a file, like a user's.
	campPath := filepath.Join(dir, "campaign.json")
	if err := os.WriteFile(campPath, data, 0o644); err != nil {
		return nil, err
	}
	if _, err := fleet.DecodeCampaign(bytes.NewReader(data)); err != nil {
		return nil, fmt.Errorf("generated campaign is invalid: %w", err)
	}
	env := &runEnv{
		bin: bin, dir: dir, state: filepath.Join(work, "determinism"),
		w: w, seed: seed, master: masterSeed(seed),
		camp: camp, campPath: campPath, campJSON: data,
		seconds: float64(seconds), chk: &checker{},
	}
	env.notef("workload %s, seed %d (fleet master seed %d), %d scenarios x %d trials, held-out seed %d",
		name, seed, env.master, len(camp.Scenarios), camp.Trials(), heldOutSeed)

	var ms []metricRow
	var attempted, failed int
	if trace == 0 {
		var res *e2eResult
		if w.service {
			res, err = measureService(env)
		} else {
			res, err = measureBatch(env)
		}
		if err != nil {
			return nil, err
		}
		ms = res.rows()
		attempted, failed = res.attempted, res.failed
	} else {
		lr, err := measureLayers(env)
		if err != nil {
			return nil, err
		}
		ms = lr.rows
		attempted, failed = lr.attempted, lr.failed
	}

	rep := &report{
		Correct:   env.chk.problems == 0 && failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metric, len(ms)),
	}
	for _, n := range env.notes {
		fmt.Println(n)
	}
	printTable(ms)
	for _, m := range ms {
		rep.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
	}
	if attempted > 0 {
		fmt.Printf("failed_frac %.6g (failed %d of %d attempted)\n", float64(failed)/float64(attempted), failed, attempted)
	}
	return rep, nil
}

// metricRow is one metric with the sample count behind it (0 for exact
// counts and derived ratios).
type metricRow struct {
	name    string
	value   float64
	unit    string
	samples int
}

func printTable(rows []metricRow) {
	sorted := append([]metricRow(nil), rows...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].name < sorted[j].name })
	width := 0
	for _, r := range sorted {
		width = max(width, len(r.name))
	}
	for _, r := range sorted {
		n := ""
		if r.samples > 0 {
			n = fmt.Sprintf("  (n=%d)", r.samples)
		}
		fmt.Printf("%-*s  %14.6g %-6s%s\n", width, r.name, r.value, r.unit, n)
	}
}

// elapsed reports whether the measurement window that began at start
// has used its seconds.
func (e *runEnv) elapsed(start time.Time) bool {
	return time.Since(start).Seconds() >= e.seconds
}

// binaryID fingerprints the fleetrun and fleetd binaries, so stored
// determinism records never compare two different programs.
func binaryID(bins ...string) (string, error) {
	h := fnv.New64a()
	for _, b := range bins {
		f, err := os.Open(b)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// recordDeterminism stores a deterministic record of this seed's
// outputs under the build directory and compares it with the one a
// previous run of the same seed and the same binaries stored: any
// difference is an error, not noise.
func (e *runEnv) recordDeterminism(kind string, record any) error {
	progID, err := binaryID(e.fleetrun(), e.fleetd())
	if err != nil {
		return err
	}
	if err := os.MkdirAll(e.state, 0o755); err != nil {
		return err
	}
	path := filepath.Join(e.state, fmt.Sprintf("%s-%s-%d-%s.json", e.w.name, kind, e.seed, progID))
	data, err := json.Marshal(record)
	if err != nil {
		return err
	}
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		if !bytes.Equal(prev, data) {
			e.chk.failf("seed %d: an earlier run recorded %s, this run %s", e.seed, prev, data)
		}
		return nil
	case errors.Is(err, os.ErrNotExist):
		return fleet.WriteFileAtomic(path, data)
	default:
		return err
	}
}
