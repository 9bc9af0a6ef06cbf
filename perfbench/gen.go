package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// heldOutSeed is kept out of every run made while tuning the benchmark
// and while writing a change; a later claim is confirmed on it.
const heldOutSeed = 90210

// workloadSpec is one benchmark workload: the campaign it generates from
// a seed and how it reaches the program.
type workloadSpec struct {
	name string
	// service workloads go through fleetd with fleetrun exec shards;
	// the others run fleetrun directly.
	service bool
	// gen must size every horizon to drain all jobs: the correctness
	// gate requires unfinished == 0.
	gen func(seed uint64) fleet.Campaign
}

var workloads = []workloadSpec{
	{name: "drain", gen: drainCampaign},
	{name: "redteam", gen: redteamCampaign},
	{name: "population", gen: populationCampaign},
	{name: "service", service: true, gen: serviceCampaign},
}

func workloadByName(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (drain, redteam, population, service)", name)
}

// masterSeed is the fleet master seed of a benchmark seed: every trial
// stream of the campaign derives from it.
func masterSeed(seed uint64) uint64 { return metrics.StreamSeed(seed, 0x62656e6368 /* "bench" */) }

// Replication counts are sized so one campaign takes a few tenths of a
// second at 2 workers (population: most of a second): a 10-second run
// then holds a dozen to about a hundred campaigns for the medians.
const (
	drainReps      = 4
	redteamReps    = 48
	populationReps = 4
	serviceReps    = 4
)

// drainCampaign is a deep queue on the narrow 8x16 experiment cluster:
// 12 users x 200 OOM-faulted jobs of 1-16 ticks under each sharing
// policy, so the scheduler's drain dominates trial wall time.
func drainCampaign(seed uint64) fleet.Campaign {
	mix := workload.MixSpec{
		Users: 12, JobsPerUser: 200,
		MinCores: 1, MaxCores: 8, MinDur: 1, MaxDur: 16, MemB: 1 << 20,
		OOMEvery: 60, OOMMemB: 2 << 30,
	}
	c := fleet.Campaign{Name: fmt.Sprintf("bench-drain-%d", seed)}
	for _, pol := range []string{"shared", "exclusive", "user-wholenode"} {
		c.Scenarios = append(c.Scenarios, fleet.Scenario{
			Name: "drain/" + pol, Profile: "enhanced", Policy: pol,
			Topology: fleet.ExperimentTopology(), Workload: mix,
			Horizon: 50000, Replications: drainReps,
		})
	}
	return c
}

// redteamScenarios is the e17-redteam matrix (5 attacker models x 2
// profiles plus the kill chain against each single-measure ablation)
// at the given replication count.
func redteamScenarios(reps int) []fleet.Scenario {
	scen := fleet.MustPreset(fleet.PresetE17RedTeam).Scenarios
	for i := range scen {
		scen[i].Replications = reps
	}
	return scen
}

// redteamCampaign is the attacked matrix with many short trials, so the
// attack steps and the separation layers under them dominate.
func redteamCampaign(seed uint64) fleet.Campaign {
	return fleet.Campaign{Name: fmt.Sprintf("bench-redteam-%d", seed), Scenarios: redteamScenarios(redteamReps)}
}

// populationTopology is the wide cluster of the population workload.
func populationTopology() core.Topology {
	return core.Topology{ComputeNodes: 1000, LoginNodes: 2, CoresPerNode: 16, MemPerNode: 1 << 30, GPUsPerNode: 2}
}

// populationCampaign provisions thousands of users with one job each on
// a 1000-node cluster under both endpoint profiles: few scheduler ticks
// over many nodes and jobs, with provisioning, Reset and memory weighing
// in.
func populationCampaign(seed uint64) fleet.Campaign {
	mix := workload.MixSpec{
		Users: 4000, JobsPerUser: 1,
		MinCores: 1, MaxCores: 16, MinDur: 1, MaxDur: 16, MemB: 1 << 20,
	}
	c := fleet.Campaign{Name: fmt.Sprintf("bench-population-%d", seed)}
	for _, prof := range []string{"enhanced", "baseline"} {
		c.Scenarios = append(c.Scenarios, fleet.Scenario{
			Name: "population/" + prof, Profile: prof,
			Topology: populationTopology(), Workload: mix,
			Horizon: 5000, Replications: populationReps,
		})
	}
	return c
}

// serviceCampaign is the redteam matrix at a few replications, submitted
// to fleetd: the same trials as redteam, so the difference isolates
// checkpointing and shard supervision.
func serviceCampaign(seed uint64) fleet.Campaign {
	return fleet.Campaign{Name: fmt.Sprintf("bench-service-%d", seed), Scenarios: redteamScenarios(serviceReps)}
}
