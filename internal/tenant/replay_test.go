// Tests for binary-trace record/replay: a machine replaying the trace
// RecordTraces wrote for its own Config must land on the identical
// fingerprint as the generated-trace run, including across a
// checkpoint/restore cycle mid-replay.
package tenant

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// recordSections records cfg's traces and decodes them back through the
// binary round trip, exercising writer and reader on every use.
func recordSections(t *testing.T, cfg Config) []trace.Section {
	t.Helper()
	var buf bytes.Buffer
	if err := RecordTraces(cfg, &buf); err != nil {
		t.Fatalf("RecordTraces: %v", err)
	}
	secs, err := trace.ReadSections(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadSections: %v", err)
	}
	return secs
}

func TestReplayMatchesGeneratedFingerprint(t *testing.T) {
	for _, org := range []sim.Org{sim.Radix, sim.ECPT, sim.MEHPT} {
		t.Run(org.String(), func(t *testing.T) {
			cfg := testConfig(org, 2)
			base, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rcfg := cfg
			rcfg.Replay = recordSections(t, cfg)
			rep, err := Run(rcfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Fingerprint != base.Fingerprint {
				t.Fatalf("replay fingerprint %s != generated %s", rep.Fingerprint, base.Fingerprint)
			}
		})
	}
}

func TestReplayCheckpointRestore(t *testing.T) {
	for _, org := range []sim.Org{sim.Radix, sim.ECPT, sim.MEHPT} {
		t.Run(org.String(), func(t *testing.T) {
			cfg := testConfig(org, 2)
			cfg.Replay = recordSections(t, cfg)

			base, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}

			m, err := NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2 && !m.Done(); i++ {
				if err := m.StepRound(); err != nil {
					t.Fatal(err)
				}
			}
			path := filepath.Join(t.TempDir(), "replay.ckpt")
			if err := m.Checkpoint(path); err != nil {
				t.Fatal(err)
			}
			r, err := LoadMachine(cfg, path)
			if err != nil {
				t.Fatal(err)
			}
			for !r.Done() {
				if err := r.StepRound(); err != nil {
					t.Fatal(err)
				}
			}
			if got := r.Collect().Fingerprint; got != base.Fingerprint {
				t.Fatalf("restored replay fingerprint %s != uninterrupted %s", got, base.Fingerprint)
			}
		})
	}
}

func TestReplayRejectsMissingSection(t *testing.T) {
	cfg := testConfig(sim.Radix, 1)
	secs := recordSections(t, cfg)

	missing := cfg
	missing.Replay = secs[:len(secs)-1]
	if _, err := Run(missing); err == nil {
		t.Fatal("Run accepted a replay trace missing the last PID's section")
	}

	short := cfg
	short.Replay = append([]trace.Section(nil), secs...)
	last := short.Replay[len(short.Replay)-1]
	short.Replay[len(short.Replay)-1] = trace.Section{PID: last.PID, VAs: last.VAs[:10]}
	if _, err := Run(short); err == nil {
		t.Fatal("Run accepted a replay section shorter than the access budget")
	}
}

func TestReplayRestoreRejectsForeignCursor(t *testing.T) {
	cfg := testConfig(sim.Radix, 1)
	cfg.Replay = recordSections(t, cfg)
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.StepRound(); err != nil {
		t.Fatal(err)
	}
	st := m.State()
	bad := cfg
	bad.Replay = []trace.Section{{PID: 12345}}
	if _, err := RestoreMachine(bad, st); !errors.Is(err, ErrMismatch) {
		t.Fatalf("RestoreMachine with foreign replay sections: err = %v, want ErrMismatch", err)
	}

	// Same PIDs, but every section holds only half the records its
	// remaining budget needs: the resumed run would exhaust the trace
	// mid-quantum, so restore must refuse it up front.
	short := cfg
	short.Replay = make([]trace.Section, len(cfg.Replay))
	for i, sec := range cfg.Replay {
		ps := st.Procs[sec.PID]
		short.Replay[i] = trace.Section{PID: sec.PID, VAs: sec.VAs[:ps.Replay+ps.Left/2]}
	}
	if _, err := RestoreMachine(short, st); !errors.Is(err, ErrMismatch) {
		t.Fatalf("RestoreMachine with truncated replay sections: err = %v, want ErrMismatch", err)
	}
}
