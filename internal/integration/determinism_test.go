package integration

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestSerialParallelEquivalence proves the parallel runner's determinism
// contract end-to-end: the same experiment matrix run with 1 worker and
// with 8 workers must produce byte-identical result rows. It exercises
// population-only drivers (Figure 8, Table 1), the ME-HPT-internals readers
// (Figure 13), and a timed-trace driver (Figure 9) so both the populate
// path and the trace path are covered.
func TestSerialParallelEquivalence(t *testing.T) {
	base := experiments.TestOptions()
	base.TimedAccesses = 30_000

	type outputs struct {
		fig8   []experiments.Figure8Row
		fig13  []experiments.Figure13Row
		table1 []experiments.Table1Row
		fig9   []experiments.Figure9Row
		text   string
	}
	render := func(parallel int) outputs {
		o := base
		o.Parallel = parallel
		out := outputs{
			fig8:   experiments.Figure8(o),
			fig13:  experiments.Figure13(o),
			table1: experiments.Table1(o),
		}
		if !testing.Short() {
			out.fig9 = experiments.Figure9(o)
		}
		var sb strings.Builder
		experiments.FprintFigure8(&sb, out.fig8)
		experiments.FprintFigure13(&sb, out.fig13)
		experiments.FprintTable1(&sb, out.table1)
		if out.fig9 != nil {
			experiments.FprintFigure9(&sb, out.fig9)
		}
		out.text = sb.String()
		return out
	}

	serial := render(1)
	parallel := render(8)

	if !reflect.DeepEqual(serial.fig8, parallel.fig8) {
		t.Errorf("Figure 8 rows diverge between -parallel 1 and -parallel 8:\nserial:   %+v\nparallel: %+v",
			serial.fig8, parallel.fig8)
	}
	if !reflect.DeepEqual(serial.fig13, parallel.fig13) {
		t.Errorf("Figure 13 rows diverge:\nserial:   %+v\nparallel: %+v", serial.fig13, parallel.fig13)
	}
	if !reflect.DeepEqual(serial.table1, parallel.table1) {
		t.Errorf("Table 1 rows diverge:\nserial:   %+v\nparallel: %+v", serial.table1, parallel.table1)
	}
	if !reflect.DeepEqual(serial.fig9, parallel.fig9) {
		t.Errorf("Figure 9 rows diverge:\nserial:   %+v\nparallel: %+v", serial.fig9, parallel.fig9)
	}
	if serial.text != parallel.text {
		t.Error("rendered output is not byte-identical between worker counts")
		a, b := strings.Split(serial.text, "\n"), strings.Split(parallel.text, "\n")
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				t.Errorf("first diverging line %d:\nserial:   %q\nparallel: %q", i, a[i], b[i])
				break
			}
		}
	}
}

// TestMultiTenantWorkerCoreMatrix is the PR's headline determinism gate:
// the multi-tenant matrix over simulated cores {1,2,4,8} produces
// byte-identical JSON at host worker counts {1,2,4,8}, and within each
// (org, processes) cell the canonical fingerprint is identical at every
// simulated core count. Host parallelism and simulated parallelism are
// both pure wall-clock knobs — neither may leak into the numbers.
func TestMultiTenantWorkerCoreMatrix(t *testing.T) {
	o := experiments.TestOptions()
	cores := []int{1, 2, 4, 8}
	procs := []int{6}

	render := func(parallel int) ([]experiments.MultiTenantRow, string) {
		po := o
		po.Parallel = parallel
		rows := experiments.MultiTenant(po, cores, procs)
		j, err := json.Marshal(rows)
		if err != nil {
			t.Fatal(err)
		}
		return rows, string(j)
	}

	baseRows, baseJSON := render(1)
	for _, r := range baseRows {
		if r.JobFailed {
			t.Fatalf("machine %s/p%d/c%d failed: %s", r.Org, r.Processes, r.Cores, r.FailReason)
		}
	}
	if bad := experiments.MultiTenantFingerprintsAgree(baseRows); len(bad) > 0 {
		t.Errorf("fingerprint diverges across simulated core counts at %v", bad)
	}
	for _, workers := range []int{2, 4, 8} {
		_, j := render(workers)
		if j != baseJSON {
			t.Errorf("matrix JSON at %d workers differs from serial run", workers)
		}
	}
}

// TestMultiTenantTraceReplayMatrix proves the record/replay path of the
// multi-tenant matrix is invisible in the results: recording every
// (org, processes) cell's access streams to sectioned binary traces and
// replaying them — freshly recorded or reread from disk — reproduces the
// generated-trace matrix byte for byte.
func TestMultiTenantTraceReplayMatrix(t *testing.T) {
	o := experiments.TestOptions()
	cores := []int{1, 2}
	procs := []int{4}

	render := func(o experiments.Options) string {
		rows := experiments.MultiTenant(o, cores, procs)
		for _, r := range rows {
			if r.JobFailed {
				t.Fatalf("machine %s/p%d/c%d failed: %s", r.Org, r.Processes, r.Cores, r.FailReason)
			}
		}
		j, err := json.Marshal(rows)
		if err != nil {
			t.Fatal(err)
		}
		return string(j)
	}

	base := render(o)
	ro := o
	ro.TenantTrace = filepath.Join(t.TempDir(), "mt")
	if got := render(ro); got != base {
		t.Error("record-then-replay matrix differs from generated-trace run")
	}
	// The trace files now exist: this run is pure replay from disk.
	if got := render(ro); got != base {
		t.Error("replay-from-disk matrix differs from generated-trace run")
	}
}

// TestMultiTenantGoldenFingerprints pins the canonical multi-tenant
// fingerprints (-scale 128 -mem 4 -processes 6 -seed 42, at 1 and 4
// simulated cores) of a clean run and of a rate=0.002 injected run, in
// which five of six tenants fail mid-quantum. The tenant loop has no scalar
// twin to be compared against, so these values are its reference: a change
// to how quanta are batched, drawn, or priced that moves any simulated
// result moves one of them.
func TestMultiTenantGoldenFingerprints(t *testing.T) {
	golden := map[string]map[string]string{
		"": {
			"Radix":  "4044893b4e6000276f0563083cc134c8a2655c32ca6944223b6ab9e391213c76",
			"ECPT":   "3664273dcfc9ca2c602d2e75c3aeec1dfd383dbd851ed8cd5c533a09d45b70ed",
			"ME-HPT": "8bf4db2873b0a33207a3cd36d722476e3d50cdf444509463c3059eb1c4726653",
		},
		"rate=0.002": {
			"Radix":  "28eaab80238fa9dbc1ac0675fd817c44868811a3a57476cd5a40d8e110bea0ab",
			"ECPT":   "3c6370363736409d24b586f0829a6a595bbfa7a9d4c8dd0ee4d039031ad2c2ca",
			"ME-HPT": "5a9fd175ac470974b892b05f49ba460625906a8a63ad5dbb1255899df7d51ce5",
		},
	}
	for _, inject := range []string{"", "rate=0.002"} {
		o := experiments.TestOptions()
		o.Inject = inject
		rows := experiments.MultiTenant(o, []int{1, 4}, []int{6})
		if len(rows) != 6 {
			t.Fatalf("inject %q: %d rows, want 6", inject, len(rows))
		}
		for _, r := range rows {
			if r.JobFailed {
				t.Fatalf("inject %q: machine %s/c%d failed: %s", inject, r.Org, r.Cores, r.FailReason)
			}
			if want := golden[inject][r.Org]; r.Fingerprint != want {
				t.Errorf("inject %q: %s/c%d fingerprint %s, want %s", inject, r.Org, r.Cores, r.Fingerprint, want)
			}
			failed := 0
			for _, p := range r.Procs {
				if p.Failed {
					failed++
				}
			}
			if wantFailed := map[string]int{"": 0, "rate=0.002": 5}[inject]; failed != wantFailed {
				t.Errorf("inject %q: %s/c%d has %d failed tenants, want %d", inject, r.Org, r.Cores, failed, wantFailed)
			}
		}
	}
}

// TestSingleProcessGoldenFingerprints pins the SHA-256 of the single-process
// experiments under experiments.TestOptions (Figure 9 at 30 000 timed
// accesses, the virtualization study at 256 pages, the Section IX Level
// Hashing comparison and the ME-HPT ablation rows): their rendered text
// followed by the JSON of their rows, which carries every float at full
// precision where the text rounds. These drivers run sim.Machine over all
// three page-table organizations, and Figure 13 and the virtualization study
// read ME-HPT internals and the nested walkers, so a change that moves any
// simulated cycle, footprint, or table statistic on the single-process path
// moves one of these values.
func TestSingleProcessGoldenFingerprints(t *testing.T) {
	o := experiments.TestOptions()
	o.TimedAccesses = 30_000
	golden := []struct {
		name   string
		render func(t *testing.T) string
		want   string
	}{
		{"Table1", func(t *testing.T) string {
			return goldenText(t, experiments.Table1(o), experiments.FprintTable1)
		}, "2c334904adc15ac20887be9d577a447dbe33aa0759828cf309d88a55cc464eef"},
		{"Figure8", func(t *testing.T) string {
			return goldenText(t, experiments.Figure8(o), experiments.FprintFigure8)
		}, "11901cc98c0e15c08b029ec5b59956698f7c0e9c375cab41c6fd07e36f583be9"},
		{"Figure9", func(t *testing.T) string {
			return goldenText(t, experiments.Figure9(o), experiments.FprintFigure9)
		}, "26740743f187ebcbed07c9a87d40b72a9e84f81dadb7d4ee73823f105aedef18"},
		{"Figure10", func(t *testing.T) string {
			return goldenText(t, experiments.Figure10(o), experiments.FprintFigure10)
		}, "50c1c07324544e7c2307ebc1297a1c16c95da80fefad93181b59627af6169bb3"},
		{"Figure13", func(t *testing.T) string {
			return goldenText(t, experiments.Figure13(o), experiments.FprintFigure13)
		}, "629bd8a9fb80bdd10a08e77ca0d60a8ff69568da739791ce8a374f87fa5ad664"},
		{"Virtualization", func(t *testing.T) string {
			return goldenText(t, experiments.Virtualization(o, 256), experiments.FprintVirtualization)
		}, "b6418058c35d39bf0512ceed1e42602f571ebb371499fe65e5ed5923e46da88d"},
		{"SectionIX", func(t *testing.T) string {
			return goldenText(t, experiments.SectionIX(o), experiments.FprintSectionIX)
		}, "f4adbd63a519a4e20d7080d11ffd7dc8e9126cd49e264e09bcd5e4b21ce27975"},
		{"Ablation", func(t *testing.T) string {
			return goldenText(t, experiments.Ablation(o), experiments.FprintAblation)
		}, "8711a612155c98870b45caf3579a3a0093bc24b2fdf936d5f139fee451fbc68b"},
	}
	for _, g := range golden {
		text := g.render(t)
		sum := sha256.Sum256([]byte(text))
		if got := hex.EncodeToString(sum[:]); got != g.want {
			t.Errorf("%s: SHA-256 %s, want %s\n%s", g.name, got, g.want, text)
		}
	}
}

// goldenText renders rows with fprint and appends their JSON encoding.
func goldenText[R any](t *testing.T, rows []R, fprint func(io.Writer, []R)) string {
	t.Helper()
	var sb strings.Builder
	fprint(&sb, rows)
	js, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	sb.Write(js)
	return sb.String()
}
