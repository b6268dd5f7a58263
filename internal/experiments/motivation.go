package experiments

import (
	"io"
	"math/rand"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/mehpt"
	"repro/internal/mmu"
	"repro/internal/phys"
	"repro/internal/radix"
	"repro/internal/runner"
	"repro/internal/workload"
)

// FiveLevelRow quantifies the paper's Section I motivation: as radix trees
// deepen (x86-64's 4 levels → LA57's 5), uncached walks gain another
// dependent memory access, while a hashed walk stays at one probe
// regardless of address-space size.
type FiveLevelRow struct {
	App          string
	Radix4Cycles float64 // average cycles per page walk
	Radix5Cycles float64
	HPTCycles    float64
}

// FiveLevelMotivation measures average walk latency for 4-level radix,
// 5-level radix, and ME-HPT on TLB-missing streams. The three walker
// variants per application are independent runs and fan out over the pool.
func FiveLevelMotivation(o Options, apps ...string) []FiveLevelRow {
	if len(apps) == 0 {
		apps = []string{"BFS", "GUPS"}
	}
	type walkJob struct {
		app  string
		spec workload.Spec
		kind string // "radix4", "radix5", "hpt"
	}
	var jobs []walkJob
	for _, app := range apps {
		spec, err := workload.ByName(app, o.Scale)
		if err != nil {
			continue
		}
		for _, kind := range []string{"radix4", "radix5", "hpt"} {
			jobs = append(jobs, walkJob{app: app, spec: spec, kind: kind})
		}
	}
	avgs := runner.Map(o.Parallel, jobs, func(_ int, j walkJob) float64 {
		seed := runner.DeriveSeed(o.Seed, j.app, j.kind, false, "motivation")
		switch j.kind {
		case "radix4":
			return walkAvgRadix(o, j.spec, 4, seed)
		case "radix5":
			return walkAvgRadix(o, j.spec, 5, seed)
		default:
			return walkAvgHPT(o, j.spec, seed)
		}
	})
	var rows []FiveLevelRow
	for i := 0; i*3 < len(jobs); i++ {
		rows = append(rows, FiveLevelRow{
			App:          jobs[i*3].app,
			Radix4Cycles: avgs[i*3],
			Radix5Cycles: avgs[i*3+1],
			HPTCycles:    avgs[i*3+2],
		})
	}
	return rows
}

// driveWalks populates pages through fault handling and then replays the
// trace counting only walk cycles.
func driveWalks(m *mmu.MMU, mapPage func(va addr.VirtAddr) error, spec workload.Spec, n uint64, seed int64) float64 {
	ok := true
	spec.TouchedPageVAs(func(va addr.VirtAddr) bool {
		if err := mapPage(va); err != nil {
			ok = false
			return false
		}
		return true
	})
	if !ok {
		return 0
	}
	tr := spec.NewTrace(seed, n)
	for {
		va, more := tr.Next()
		if !more {
			break
		}
		m.Translate(va)
	}
	st := m.Stats()
	if st.Walks == 0 {
		return 0
	}
	return float64(st.WalkCycles) / float64(st.Walks)
}

func walkAvgRadix(o Options, spec workload.Spec, levels int, seed int64) float64 {
	mem := phys.NewMemory(o.MemBytes)
	alloc := phys.NewAllocator(mem, 0)
	pt, err := radix.NewPageTableLevels(alloc, levels)
	if err != nil {
		return 0
	}
	m := mmu.NewRadix(pt, cache.NewHierarchy(cache.TableIII()))
	next := addr.PPN(0)
	return driveWalks(m, func(va addr.VirtAddr) error {
		next++
		_, err := pt.Map(va.PageNumber(addr.Page4K), addr.Page4K, next)
		return err
	}, spec, o.TimedAccesses, seed)
}

func walkAvgHPT(o Options, spec workload.Spec, seed int64) float64 {
	mem := phys.NewMemory(o.MemBytes)
	alloc := phys.NewAllocator(mem, 0)
	cfg := mehpt.DefaultConfig(uint64(seed))
	cfg.Rand = rand.New(rand.NewSource(seed))
	pt, err := mehpt.NewPageTable(alloc, cfg)
	if err != nil {
		return 0
	}
	m := mmu.NewHPT(pt, cache.NewHierarchy(cache.TableIII()))
	next := addr.PPN(0)
	return driveWalks(m, func(va addr.VirtAddr) error {
		next++
		_, err := pt.Map(va.PageNumber(addr.Page4K), addr.Page4K, next)
		return err
	}, spec, o.TimedAccesses, seed)
}

// FprintFiveLevel renders the motivation numbers.
func FprintFiveLevel(w io.Writer, rows []FiveLevelRow) {
	fprintf(w, "Section I motivation: average page-walk latency (cycles)\n")
	fprintf(w, "%-9s %10s %10s %10s %16s\n", "App", "Radix-4L", "Radix-5L", "ME-HPT", "5L vs HPT ratio")
	for _, r := range rows {
		ratio := 0.0
		if r.HPTCycles > 0 {
			ratio = r.Radix5Cycles / r.HPTCycles
		}
		fprintf(w, "%-9s %10.0f %10.0f %10.0f %15.2fx\n",
			r.App, r.Radix4Cycles, r.Radix5Cycles, r.HPTCycles, ratio)
	}
	fprintf(w, "Deeper trees add a dependent access per walk; the hashed walk does not grow.\n")
}
