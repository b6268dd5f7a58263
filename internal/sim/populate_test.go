package sim

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/addr"
	"repro/internal/workload"
)

// The populate contract, on a sparse (GUPS) and a dense (BFS) footprint:
// one fault per touched page, every touched page translating to its own
// data frame, and no page faulting twice however often Run is called.

var populateApps = []string{"GUPS", "BFS"}

// populateCfg populates app's touched pages at small scale on unfragmented
// memory, so every 2MB allocation a THP fault asks for succeeds.
func populateCfg(t *testing.T, org Org, app string) Config {
	t.Helper()
	spec, err := workload.ByName(app, 256)
	if err != nil {
		t.Fatal(err)
	}
	return Config{Org: org, Workload: spec, Populate: true, Seed: 1, MemBytes: 2 * addr.GB}
}

func newMachine(t *testing.T, cfg Config) *Machine {
	t.Helper()
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// checkRun is Run with a populate that looks every touched page up in the
// table and faults only those that miss: the reference the resumable
// populate must match result for result.
func checkRun(m *Machine) Result {
	res := Result{Org: m.cfg.Org, Workload: m.cfg.Workload.Name, THP: m.cfg.THP}
	m.cfg.Workload.TouchedPageVAs(func(va addr.VirtAddr) bool {
		if _, ok := m.table.Translate(va); ok {
			return true
		}
		cycles, err := m.eng.OS.HandleFault(va)
		res.OSCycles += cycles
		if err != nil {
			res.Failed = true
			res.FailReason = err.Error()
		}
		return err == nil
	})
	if !res.Failed {
		m.runSource(m.cfg.Workload.NewTrace(m.cfg.Seed+7, m.cfg.Accesses), &res)
	}
	m.finish(&res)
	return res
}

// sameResult compares two results by value, ignoring the table handles.
func sameResult(t *testing.T, step string, got, want Result) {
	t.Helper()
	got.MEHPT, got.ECPT, want.MEHPT, want.ECPT = nil, nil, nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Result differs from the check-every-page populate:\n got %+v\nwant %+v", step, got, want)
	}
}

// touchedPages returns the touched pages in first-touch order.
func touchedPages(spec workload.Spec) []addr.VirtAddr {
	var vas []addr.VirtAddr
	spec.TouchedPageVAs(func(va addr.VirtAddr) bool {
		vas = append(vas, va)
		return true
	})
	return vas
}

// checkMapped fails unless every touched page translates at size s and no
// two pages of size s share a data frame.
func checkMapped(t *testing.T, m *Machine, s addr.PageSize) {
	t.Helper()
	owner := map[addr.PPN]addr.VPN{}
	for _, va := range touchedPages(m.cfg.Workload) {
		tr, ok := m.table.Translate(va)
		if !ok {
			t.Fatalf("touched page %#x does not translate", uint64(va))
		}
		if tr.Size != s {
			t.Fatalf("touched page %#x maps at %v, want %v", uint64(va), tr.Size, s)
		}
		vpn := va.PageNumber(s)
		if prev, dup := owner[tr.PPN]; dup && prev != vpn {
			t.Fatalf("pages %#x and %#x share data frame %#x", uint64(prev), uint64(vpn), uint64(tr.PPN))
		}
		owner[tr.PPN] = vpn
	}
}

func TestPopulateFaultsEachPageOnce(t *testing.T) {
	for _, app := range populateApps {
		for _, org := range []Org{Radix, ECPT, MEHPT} {
			t.Run(app+"/"+org.String(), func(t *testing.T) {
				cfg := populateCfg(t, org, app)
				m := newMachine(t, cfg)
				res := m.Run()
				sameResult(t, "populate", res, checkRun(newMachine(t, cfg)))
				if res.Failed {
					t.Fatalf("populate failed: %s", res.FailReason)
				}
				if pages := uint64(len(touchedPages(cfg.Workload))); res.OS.Faults != pages || res.OS.HugeFaults != 0 {
					t.Fatalf("%d faults (%d huge), want one 4KB fault per touched page (%d)", res.OS.Faults, res.OS.HugeFaults, pages)
				}
				checkMapped(t, m, addr.Page4K)
			})
		}
	}
}

// TestPopulateTHPFaultsEachRegionOnce: with every region THP-eligible, the
// first touch of a 2MB region maps all of it, and the later pages of the
// region must not fault.
func TestPopulateTHPFaultsEachRegionOnce(t *testing.T) {
	for _, app := range populateApps {
		for _, org := range []Org{Radix, ECPT, MEHPT} {
			t.Run(app+"/"+org.String(), func(t *testing.T) {
				cfg := populateCfg(t, org, app)
				cfg.THP = true
				cfg.Workload.THPFraction = 1
				m := newMachine(t, cfg)
				res := m.Run()
				if res.Failed {
					t.Fatalf("populate failed: %s", res.FailReason)
				}
				regions := map[addr.VPN]bool{}
				for _, va := range touchedPages(cfg.Workload) {
					regions[va.PageNumber(addr.Page2M)] = true
				}
				if n := uint64(len(regions)); res.OS.Faults != n || res.OS.HugeFaults != n {
					t.Fatalf("%d faults (%d huge), want one 2MB fault per touched region (%d)", res.OS.Faults, res.OS.HugeFaults, n)
				}
				checkMapped(t, m, addr.Page2M)
			})
		}
	}
}

// TestPopulateResumes: Run after a complete populate faults nothing, Run
// after a populate that an allocation failure stopped resumes at the page
// that failed, and a populate after a trace run skips the pages the trace
// faulted in. At every step the result is the check-every-page populate's.
func TestPopulateResumes(t *testing.T) {
	for _, app := range populateApps {
		for _, org := range []Org{Radix, ECPT, MEHPT} {
			t.Run(app+"/"+org.String(), func(t *testing.T) {
				cfg := populateCfg(t, org, app)
				pages := uint64(len(touchedPages(cfg.Workload)))

				m, ref := newMachine(t, cfg), newMachine(t, cfg)
				for run := 1; run <= 2; run++ {
					res := m.Run()
					sameResult(t, fmt.Sprintf("complete populate, run %d", run), res, checkRun(ref))
					if res.OS.Faults != pages {
						t.Fatalf("run %d: %d faults, want %d", run, res.OS.Faults, pages)
					}
				}

				// Every 997th allocation fails, so each Run stops on some
				// page and the next one must pick up there.
				cfg.Inject = "nth=997"
				m, ref = newMachine(t, cfg), newMachine(t, cfg)
				stopped := uint64(0)
				for {
					res := m.Run()
					sameResult(t, fmt.Sprintf("injected populate, run %d", stopped+1), res, checkRun(ref))
					if !res.Failed {
						break
					}
					if stopped++; stopped > 100 {
						t.Fatal("populate never completed")
					}
				}
				if stopped == 0 {
					t.Fatal("no Run stopped midway: the injection missed every data allocation")
				}
				// Each stop failed one fault, retried by the next Run.
				if got := m.eng.OS.Stats().Faults; got != pages+stopped {
					t.Fatalf("%d faults over %d stopped runs, want %d", got, stopped, pages+stopped)
				}
				checkMapped(t, m, addr.Page4K)

				// A trace run faults in the second half of the pages first.
				cfg.Inject = ""
				m, ref = newMachine(t, cfg), newMachine(t, cfg)
				secondHalf := func() func([]addr.VirtAddr) int {
					vas := touchedPages(cfg.Workload)[pages/2:]
					return func(out []addr.VirtAddr) int {
						n := copy(out, vas)
						vas = vas[n:]
						return n
					}
				}
				m.RunBatches(secondHalf())
				ref.RunBatches(secondHalf())
				sameResult(t, "populate after a trace run", m.Run(), checkRun(ref))
				if got := m.eng.OS.Stats().Faults; got != pages {
					t.Fatalf("%d faults, want %d", got, pages)
				}
				checkMapped(t, m, addr.Page4K)
			})
		}
	}
}
