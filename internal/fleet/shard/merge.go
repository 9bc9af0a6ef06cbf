package shard

import (
	"fmt"

	"repro/internal/fleet"
)

// MergeCheckpoints folds shard checkpoint sidecars into the
// campaign's result. Every checkpoint is validated against the
// (campaign, seed) identity first — a sidecar from a different
// campaign, seed or format is rejected, exactly like a resume. The
// reduction is Run's own, fleet.ReduceScenario, so for a complete
// trial set the returned result's JSON() bytes equal a 1-process
// fleet.Run's, and the checkpoints are never mutated.
//
// A replication present in more than one checkpoint is an error (the
// planner's ranges are disjoint; overlap means the caller mixed
// sidecars from different plans). A missing replication is an error
// unless degrade is true, in which case it merges as a degraded
// zero-sample aggregate carrying one counted failure — the terminal
// state of a shard that exhausted its supervisor retry budget.
func MergeCheckpoints(c fleet.Campaign, seed uint64, cks []*fleet.Checkpoint, degrade bool) (*fleet.CampaignResult, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	for _, ck := range cks {
		if err := ck.ValidateAgainst(c, seed); err != nil {
			return nil, err
		}
	}
	res := &fleet.CampaignResult{Campaign: c.Name, Seed: seed}
	for si := range c.Scenarios {
		partials, err := collectPartials(c, cks, si)
		if err != nil {
			return nil, err
		}
		agg, err := fleet.ReduceScenario(&c.Scenarios[si], partials, degrade)
		if err != nil {
			return nil, err
		}
		res.Scenarios = append(res.Scenarios, agg)
	}
	return res, nil
}

// collectPartials gathers scenario si's single-trial partials from
// every checkpoint, indexed by replication (nil = missing). Nil
// checkpoints are skipped so callers can pass live snapshots where
// some shards have not written a sidecar yet.
func collectPartials(c fleet.Campaign, cks []*fleet.Checkpoint, si int) ([]*fleet.ScenarioResult, error) {
	out := make([]*fleet.ScenarioResult, c.Scenarios[si].Replications)
	for _, ck := range cks {
		if ck == nil {
			continue
		}
		sc := &ck.Scenarios[si]
		for pi := range sc.Partials {
			p := &sc.Partials[pi]
			if out[p.Replication] != nil {
				return nil, fmt.Errorf("shard: scenario %q replication %d appears in more than one shard checkpoint (mixed plans?)",
					c.Scenarios[si].Name, p.Replication)
			}
			out[p.Replication] = &p.Result
		}
	}
	return out, nil
}
