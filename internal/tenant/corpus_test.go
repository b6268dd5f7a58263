package tenant_test

// The checkpoint corpus: one mid-run machine checkpoint per organization,
// committed under testdata/checkpoints with the fingerprint its resumed
// run ends on. Each must still decode, restore, resume to Done on that
// fingerprint and scrub clean, so a change to the snapshot format or to
// what a restore rebuilds either keeps old checkpoints resuming or bumps
// snapshot.Version with a documented rejection.
//
// The files were written by the commit before the shared segment became a
// plain cuckoo.Table, when its lookups were counted outside the table's own
// stats (the ROLookups/ROProbeSlots fields of MachineState.SharedTable).
// Each was captured from NewMachine(corpusConfig(org)) after two
// StepRound calls, with Machine.Checkpoint; every one carries nonzero
// read-only lookup counts that a restore must fold back in.
//
// Those two rounds ran shared references outside the engine, so they
// priced them differently from today's run: each entry pins the
// fingerprint of today's uninterrupted run and, separately, the one its
// checkpoint resumes to.

import (
	"bytes"
	"encoding/gob"
	"path/filepath"
	"testing"

	"repro/internal/addr"
	"repro/internal/scrub"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/tenant"
)

// corpusConfig is the machine the corpus was captured from: one tenant on
// an 8MB pool split into two stripes, so more than one stripe is
// serialized, with a 64-page shared segment.
func corpusConfig(org sim.Org) tenant.Config {
	return tenant.Config{
		Org:             org,
		Processes:       1,
		Cores:           1,
		MemBytes:        8 * addr.MB,
		Stripes:         2,
		Seed:            42,
		AccessesPerProc: 3000,
		Quantum:         512,
		Scale:           4096,
		SharedPages:     64,
	}
}

// corpus is the committed checkpoint of each organization with the
// fingerprints of the uninterrupted corpusConfig run and of the run the
// checkpoint resumes to.
var corpus = []struct {
	org     sim.Org
	file    string
	fp      string // uninterrupted Run fingerprint
	resumed string // fingerprint the checkpoint resumes to
}{
	{sim.Radix, "radix.ckpt", "9dc4fef9aa8f7ffb287d2b48f48016319cb79fc09553d339c3b350414fe656a0", "2da85c0976df0e5d31d79d41f13cf019f0d5f1ac771bdafb93633bde6cf5d69c"},
	{sim.ECPT, "ecpt.ckpt", "0ce9fdd05fac5da245b2786c5c80c7de3ca7c7cd649ce1275a0619a3cb8a7ed3", "4902284f1c28f593d75d9d7159abfadc70cf2dadaec502850e17d92b792d42b9"},
	{sim.MEHPT, "mehpt.ckpt", "b21ad6d7dfc7d49275c7f03b08bc67d732b9f11dffb90c8e22cfaf64f7c31cb8", "6d135bb495ef8e36518f03b92df38d25fa5ab71af052cdf4d6dde7cc41bc5305"},
}

func TestCheckpointCorpusResumes(t *testing.T) {
	for _, tc := range corpus {
		t.Run(tc.org.String(), func(t *testing.T) {
			cfg := corpusConfig(tc.org)
			if base, err := tenant.Run(cfg); err != nil {
				t.Fatalf("Run: %v", err)
			} else if base.Fingerprint != tc.fp {
				t.Fatalf("uninterrupted fingerprint %s, pinned %s", base.Fingerprint, tc.fp)
			}

			var st tenant.MachineState
			if err := snapshot.Load(filepath.Join("testdata", "checkpoints", tc.file), &st); err != nil {
				t.Fatalf("Load: %v", err)
			}
			if st.SharedTable.ROLookups == 0 || st.SharedTable.ROProbeSlots == 0 {
				t.Fatalf("corpus checkpoint carries no read-only shared lookups (%d/%d); it no longer tests their fold",
					st.SharedTable.ROLookups, st.SharedTable.ROProbeSlots)
			}
			m, err := tenant.RestoreMachine(cfg, &st)
			if err != nil {
				t.Fatalf("RestoreMachine: %v", err)
			}
			if m.Done() {
				t.Fatal("corpus checkpoint is already finished")
			}
			for !m.Done() {
				if err := m.StepRound(); err != nil {
					t.Fatalf("StepRound: %v", err)
				}
			}
			if got := m.Collect().Fingerprint; got != tc.resumed {
				t.Fatalf("resumed fingerprint %s, pinned %s", got, tc.resumed)
			}
			if vs := scrub.Machine(m); len(vs) != 0 {
				t.Fatalf("resumed machine scrubs dirty: %v", vs)
			}
		})
	}
}

// encodedState is the gob encoding of m.State(), as a checkpoint carries
// it.
func encodedState(t *testing.T, m *tenant.Machine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m.State()); err != nil {
		t.Fatalf("encoding State: %v", err)
	}
	return buf.Bytes()
}

// TestStateEncodingIsByteIdentical: every encoding of one machine state is
// the same bytes, so checkpoints of one state compare by hash. A map in
// the state would break this: gob writes maps in iteration order, which
// varies from one encoding to the next.
func TestStateEncodingIsByteIdentical(t *testing.T) {
	for _, tc := range corpus {
		t.Run(tc.org.String(), func(t *testing.T) {
			m, err := tenant.NewMachine(corpusConfig(tc.org))
			if err != nil {
				t.Fatalf("NewMachine: %v", err)
			}
			for i := 0; i < 2; i++ {
				if err := m.StepRound(); err != nil {
					t.Fatalf("StepRound: %v", err)
				}
			}
			first := encodedState(t, m)
			for i := 0; i < 8; i++ {
				if again := encodedState(t, m); !bytes.Equal(first, again) {
					t.Fatalf("encoding %d of one state differs from the first (%d vs %d bytes)", i+2, len(again), len(first))
				}
			}
		})
	}
}

// TestScrubIsReadOnly: scrubbing a machine mid-run leaves what a checkpoint
// of it carries unchanged, and its run ending on the uninterrupted
// fingerprint. The TLB-coherence check resolves every cached translation;
// resolving through the counted lookup paths would move table statistics
// that the state and the fingerprint carry.
func TestScrubIsReadOnly(t *testing.T) {
	for _, tc := range corpus {
		t.Run(tc.org.String(), func(t *testing.T) {
			m, err := tenant.NewMachine(corpusConfig(tc.org))
			if err != nil {
				t.Fatalf("NewMachine: %v", err)
			}
			for i := 0; i < 2; i++ {
				if err := m.StepRound(); err != nil {
					t.Fatalf("StepRound: %v", err)
				}
			}
			before := encodedState(t, m)
			if vs := scrub.Machine(m); len(vs) != 0 {
				t.Fatalf("mid-run machine scrubs dirty: %v", vs)
			}
			if after := encodedState(t, m); !bytes.Equal(before, after) {
				t.Fatal("scrub changed the machine state")
			}
			for !m.Done() {
				if err := m.StepRound(); err != nil {
					t.Fatalf("StepRound: %v", err)
				}
			}
			if got := m.Collect().Fingerprint; got != tc.fp {
				t.Fatalf("fingerprint after a mid-run scrub %s, uninterrupted %s", got, tc.fp)
			}
		})
	}
}
