package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"sort"
	"testing"

	"repro/internal/fleet"
)

var seeds = []uint64{0, 1, 2, 42, heldOutSeed}

func TestSameSeedSameCampaignBytes(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range seeds {
			a, err := fleet.EncodeCampaign(w.gen(seed))
			if err != nil {
				t.Fatal(err)
			}
			b, err := fleet.EncodeCampaign(w.gen(seed))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("%s seed %d: two generations differ", w.name, seed)
			}
		}
		if a, b := w.gen(1), w.gen(2); a.Name == b.Name {
			t.Errorf("%s: seeds 1 and 2 generate the same campaign name %q", w.name, a.Name)
		}
	}
	if masterSeed(1) == masterSeed(2) {
		t.Error("seeds 1 and 2 derive the same fleet master seed")
	}
}

func TestGeneratedCampaignsDecode(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range seeds {
			data, err := fleet.EncodeCampaign(w.gen(seed))
			if err != nil {
				t.Fatal(err)
			}
			c, err := fleet.DecodeCampaign(bytes.NewReader(data))
			if err != nil {
				t.Errorf("%s seed %d: %v", w.name, seed, err)
				continue
			}
			for _, s := range c.Scenarios {
				if _, _, err := resolveScenario(s); err != nil {
					t.Errorf("%s seed %d scenario %q: %v", w.name, seed, s.Name, err)
				}
			}
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json perfbench's output must
// agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestMetricNames checks that perfbench prints exactly the metrics
// BENCHMARK.json declares, with the declared units, under valid names.
func TestMetricNames(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	compare := func(kind string, rows []metricRow, declared map[string]string) {
		t.Helper()
		got := map[string]string{}
		for _, r := range rows {
			if !valid.MatchString(r.name) {
				t.Errorf("%s metric name %q is not [A-Za-z0-9_.-]+", kind, r.name)
			}
			if _, dup := got[r.name]; dup {
				t.Errorf("%s metric %q printed twice", kind, r.name)
			}
			got[r.name] = r.unit
		}
		for name, unit := range declared {
			if u, ok := got[name]; !ok {
				t.Errorf("%s metric %q is declared but not printed", kind, name)
			} else if u != unit {
				t.Errorf("%s metric %q printed in %q, declared in %q", kind, name, u, unit)
			}
		}
		for name := range got {
			if _, ok := declared[name]; !ok {
				t.Errorf("%s metric %q is printed but not declared", kind, name)
			}
		}
	}
	e2e := map[string]string{}
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	compare("end-to-end", (&e2eResult{}).rows(), e2e)
	layer := map[string]string{}
	for _, m := range bf.PerLayer {
		layer[m.Name] = m.Unit
	}
	lm := &layerMeasures{rp: newReplayer(), ck: &checkpointResult{}, sv: &serviceResult{}}
	compare("per-layer", lm.rows(), layer)

	var names, want []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, perfbench workloads %v", names, want)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}
