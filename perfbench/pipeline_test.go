package main

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/sim"
	"repro/internal/workload"
)

// smallWorkload returns a config small enough for a unit test that still
// faults, resizes its tables and misses the TLBs.
func smallConfig(t *testing.T, app string, org sim.Org) sim.Config {
	t.Helper()
	spec, err := workload.ByName(app, 1024)
	if err != nil {
		t.Fatal(err)
	}
	return sim.Config{Org: org, Workload: spec, Populate: true, FreeFraction: 0.35, Seed: 42}
}

const testAccesses = 30_000

// machineOutcomes runs cfg through sim.Machine as the benchmark does: a
// populate-only Run, then a generated trace through RunBatches.
func machineOutcomes(t *testing.T, cfg sim.Config) (populate, timed simOutcome) {
	t.Helper()
	m, err := sim.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.SetAmbientFMFI(ambientFMFI)
	populate = outcomeOf(m.Run())
	timed = outcomeOf(m.RunBatches(cfg.Workload.NewTrace(9, testAccesses).NextBatch))
	return populate, timed
}

// pipelineOutcomes runs cfg the same way through the rebuilt pipeline.
func pipelineOutcomes(t *testing.T, cfg sim.Config, tr *tracer) (populate, timed simOutcome) {
	t.Helper()
	p, err := newPipeline(cfg, ambientFMFI, tr)
	if err != nil {
		t.Fatal(err)
	}
	cycles, err := p.populate(spSetup)
	if err != nil {
		t.Fatal(err)
	}
	populate = p.result(outcome{os: cycles})
	gen := cfg.Workload.NewTrace(9, testAccesses)
	o, err := p.run(func(out []addr.VirtAddr) (int, error) { return gen.NextBatch(out), nil }, spGen)
	if err != nil {
		t.Fatal(err)
	}
	return populate, p.result(o)
}

// The decorators must pass every call through unchanged: a traced pipeline,
// an undecorated one, and sim.Machine simulate bit-identical statistics.
func TestDecoratedPipelineMatchesMachine(t *testing.T) {
	for _, app := range []string{"BFS", "GUPS"} {
		for _, org := range orgs {
			cfg := smallConfig(t, app, org)
			wantPop, wantTimed := machineOutcomes(t, cfg)
			plainPop, plainTimed := pipelineOutcomes(t, cfg, nil)
			tr := newTracer()
			tracedPop, tracedTimed := pipelineOutcomes(t, cfg, tr)
			for _, got := range []struct {
				name       string
				pop, timed simOutcome
			}{{"undecorated", plainPop, plainTimed}, {"decorated", tracedPop, tracedTimed}} {
				if got.pop != wantPop {
					t.Errorf("%s %v %s populate:\n got %+v\nwant %+v", app, org, got.name, got.pop, wantPop)
				}
				if got.timed != wantTimed {
					t.Errorf("%s %v %s timed phase:\n got %+v\nwant %+v", app, org, got.name, got.timed, wantTimed)
				}
			}
			if wantTimed.Accesses != testAccesses || wantPop.OS.Faults == 0 {
				t.Fatalf("%s %v: test config exercises nothing: %+v", app, org, wantTimed)
			}
			// Every decorated call was timed.
			if tr.stats[spFault].calls != tracedTimed.OS.Faults {
				t.Errorf("%s %v: %d fault spans for %d faults", app, org, tr.stats[spFault].calls, tracedTimed.OS.Faults)
			}
			if tr.stats[spMMUWalk].calls != tracedTimed.MMU.Walks {
				t.Errorf("%s %v: %d walk spans for %d walks", app, org, tr.stats[spMMUWalk].calls, tracedTimed.MMU.Walks)
			}
		}
	}
}
