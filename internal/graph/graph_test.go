package graph

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/addr"
)

func testGraph(t *testing.T, n uint64, deg int) *Graph {
	t.Helper()
	return GenerateUniform(n, deg, 42, addr.VirtAddr(0x1000_0000))
}

func TestGenerateCSRInvariants(t *testing.T) {
	g := testGraph(t, 1000, 8)
	if g.N != 1000 {
		t.Fatalf("N = %d", g.N)
	}
	if g.offsets[0] != 0 || g.offsets[g.N] != g.M {
		t.Fatalf("offset endpoints: %d..%d, M=%d", g.offsets[0], g.offsets[g.N], g.M)
	}
	for i := uint64(0); i < g.N; i++ {
		if g.offsets[i] > g.offsets[i+1] {
			t.Fatalf("offsets not monotone at %d", i)
		}
	}
	for _, e := range g.edges {
		if uint64(e) >= g.N {
			t.Fatalf("edge target %d out of range", e)
		}
	}
	if g.totalSpan == 0 {
		t.Error("zero span")
	}
}

func TestLayoutDisjoint(t *testing.T) {
	g := testGraph(t, 5000, 10)
	type region struct {
		name       string
		start, end addr.VirtAddr
	}
	regions := []region{
		{"offsets", g.offBase, g.offBase + addr.VirtAddr((g.N+1)*offsetBytes)},
		{"edges", g.edgeBase, g.edgeBase + addr.VirtAddr(g.M*edgeBytes)},
		{"props", g.propBase, g.propBase + addr.VirtAddr(g.N*propBytes)},
		{"work", g.WorkBase, g.WorkBase + addr.VirtAddr(g.N*propBytes)},
	}
	for i := 0; i < len(regions); i++ {
		for j := i + 1; j < len(regions); j++ {
			a, b := regions[i], regions[j]
			if a.start < b.end && b.start < a.end {
				t.Errorf("regions %s and %s overlap", a.name, b.name)
			}
		}
	}
}

func TestBFSReachesMost(t *testing.T) {
	g := testGraph(t, 2000, 8)
	var accesses uint64
	reached := g.BFS(0, func(va addr.VirtAddr) { accesses++ })
	// A uniform graph with degree 8 has a giant strongly-connected-ish
	// component; BFS should reach the bulk of it.
	if reached < g.N/2 {
		t.Errorf("BFS reached %d of %d", reached, g.N)
	}
	if accesses == 0 {
		t.Error("no accesses traced")
	}
}

func TestBFSvsDFSSameReachability(t *testing.T) {
	g := testGraph(t, 1500, 6)
	null := func(addr.VirtAddr) {}
	if b, d := g.BFS(0, null), g.DFS(0, null); b != d {
		t.Errorf("BFS reached %d but DFS %d from the same root", b, d)
	}
}

func TestPageRankMassConserved(t *testing.T) {
	g := testGraph(t, 1000, 8)
	sum := g.PageRank(5, func(addr.VirtAddr) {})
	// Dangling nodes leak a little mass; allow 15%.
	if sum < 0.85 || sum > 1.0001 {
		t.Errorf("rank mass = %v, want ≈1", sum)
	}
}

func TestConnectedComponents(t *testing.T) {
	g := testGraph(t, 1000, 8)
	cc := g.ConnectedComponents(func(addr.VirtAddr) {})
	// Degree 8 uniform: almost surely one big component.
	if cc > g.N/10 {
		t.Errorf("%d components of %d nodes; propagation broken?", cc, g.N)
	}
}

func TestDegreeCentrality(t *testing.T) {
	g := testGraph(t, 1000, 8)
	max := g.DegreeCentrality(func(addr.VirtAddr) {})
	var want uint64
	for v := uint64(0); v < g.N; v++ {
		if d := g.Degree(uint32(v)); d > want {
			want = d
		}
	}
	if max != want {
		t.Errorf("max degree = %d, want %d", max, want)
	}
}

func TestSSSPMatchesBFSReach(t *testing.T) {
	g := testGraph(t, 1200, 6)
	null := func(addr.VirtAddr) {}
	bfs := g.BFS(0, null)
	sssp := g.SSSP(0, 64, null)
	if bfs != sssp {
		t.Errorf("SSSP reached %d, BFS %d", sssp, bfs)
	}
}

func TestTriangleCountSmall(t *testing.T) {
	// Hand-built triangle: 0→1,1→2,2→0 and the reverse, plus bidirectional
	// closure so all orientations exist.
	g := &Graph{N: 3, Base: 0x100000}
	g.offsets = []uint64{0, 2, 4, 6}
	g.edges = []uint32{1, 2, 0, 2, 0, 1}
	g.M = 6
	g.layout()
	got := g.TriangleCount(3, func(addr.VirtAddr) {})
	if got == 0 {
		t.Errorf("triangle not counted")
	}
}

func TestBetweennessNonNegative(t *testing.T) {
	g := testGraph(t, 400, 6)
	max := g.BetweennessCentrality(4, func(addr.VirtAddr) {})
	if max < 0 || math.IsNaN(max) {
		t.Errorf("BC max = %v", max)
	}
}

// kernels are the names Run accepts, in the paper's application order.
var kernels = []string{"BC", "BFS", "CC", "DC", "DFS", "PR", "SSSP", "TC"}

func TestRunAllKernels(t *testing.T) {
	g := testGraph(t, 800, 6)
	for _, k := range kernels {
		var n uint64
		if _, err := g.Run(k, func(addr.VirtAddr) { n++ }); err != nil {
			t.Errorf("%s: %v", k, err)
		}
		if n == 0 {
			t.Errorf("%s: no memory accesses traced", k)
		}
	}
	if _, err := g.Run("nope", func(addr.VirtAddr) {}); err == nil {
		t.Error("unknown kernel accepted")
	}
}

// TestTraceAddressesInSpan: every traced address falls within the graph's
// virtual arrays.
func TestTraceAddressesInSpan(t *testing.T) {
	g := testGraph(t, 600, 6)
	lo, hi := g.Base, g.Base+addr.VirtAddr(g.totalSpan)
	for _, k := range kernels {
		bad := 0
		g.Run(k, func(va addr.VirtAddr) {
			if va < lo || va >= hi {
				bad++
			}
		})
		if bad > 0 {
			t.Errorf("%s: %d accesses outside the graph span", k, bad)
		}
	}
}

// TestKernelStreamsRepeat: every kernel emits the same address stream on
// every run. The graph is dense enough that TC's per-node neighbour sets
// hold several keys, so a trace that followed map iteration order would
// differ between the two runs.
func TestKernelStreamsRepeat(t *testing.T) {
	g := testGraph(t, 3000, 16)
	stream := func(k string) (uint64, float64) {
		h := fnv.New64a()
		var buf [8]byte
		check, err := g.Run(k, func(va addr.VirtAddr) {
			binary.LittleEndian.PutUint64(buf[:], uint64(va))
			h.Write(buf[:])
		})
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		return h.Sum64(), check
	}
	for _, k := range kernels {
		h1, c1 := stream(k)
		h2, c2 := stream(k)
		if h1 != h2 || c1 != c2 {
			t.Errorf("%s: stream hash %#x then %#x, checksum %v then %v", k, h1, h2, c1, c2)
		}
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a := GenerateUniform(500, 4, 7, 0)
	b := GenerateUniform(500, 4, 7, 0)
	if a.M != b.M {
		t.Fatal("nondeterministic edge count")
	}
	for i := range a.edges {
		if a.edges[i] != b.edges[i] {
			t.Fatal("nondeterministic edges")
		}
	}
}
