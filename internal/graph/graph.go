// Package graph provides the graph-processing substrate: CSR graphs laid
// out in simulated virtual memory and real kernel implementations (BFS, DFS,
// PageRank, connected components, degree/betweenness centrality, SSSP,
// triangle counting — the GraphBIG kernels the paper evaluates) that emit
// the exact virtual-address stream of every array element they touch.
//
// The statistical generators in internal/workload are calibrated to
// reproduce Table I's page-table sizes; this package complements them with
// genuine algorithm-driven traces for end-to-end demonstrations
// (examples/graphkernels) and cross-validation tests.
package graph

import (
	"fmt"
	"math/rand"

	"repro/internal/addr"
)

// Element sizes of the in-memory arrays.
const (
	offsetBytes = 8
	edgeBytes   = 8
	propBytes   = 8
)

// Tracer receives the virtual address of every memory reference a kernel
// makes, in program order.
type Tracer func(va addr.VirtAddr)

// Graph is a directed graph in CSR form, with its arrays assigned virtual
// addresses so kernels can emit realistic access streams.
type Graph struct {
	N uint64 // nodes
	M uint64 // edges

	offsets []uint64 // len N+1
	edges   []uint32 // len M

	// Virtual layout: offsets, edges, and a property array live
	// back-to-back from Base, each page-aligned.
	Base      addr.VirtAddr
	offBase   addr.VirtAddr
	edgeBase  addr.VirtAddr
	propBase  addr.VirtAddr
	WorkBase  addr.VirtAddr // frontier queues, stacks, auxiliary arrays
	totalSpan uint64
}

// GenerateUniform builds a uniform random directed graph with n nodes and
// average out-degree deg, deterministically from seed.
func GenerateUniform(n uint64, deg int, seed int64, base addr.VirtAddr) *Graph {
	if n == 0 || deg <= 0 {
		panic("graph: need n > 0 and deg > 0")
	}
	rng := rand.New(rand.NewSource(seed))
	g := &Graph{N: n, Base: base}
	g.offsets = make([]uint64, n+1)
	counts := make([]uint32, n)
	m := n * uint64(deg)
	targets := make([]uint32, m)
	for i := range targets {
		targets[i] = uint32(rng.Int63n(int64(n)))
		counts[rng.Int63n(int64(n))]++
	}
	// Build CSR from per-node counts.
	for i := uint64(0); i < n; i++ {
		g.offsets[i+1] = g.offsets[i] + uint64(counts[i])
	}
	g.M = g.offsets[n]
	g.edges = make([]uint32, g.M)
	copy(g.edges, targets[:g.M])
	g.layout()
	return g
}

// layout assigns page-aligned virtual bases to the arrays.
func (g *Graph) layout() {
	page := uint64(4 * addr.KB)
	cur := g.Base
	g.offBase = cur
	cur = addr.AlignUp(cur+addr.VirtAddr((g.N+1)*offsetBytes), page)
	g.edgeBase = cur
	cur = addr.AlignUp(cur+addr.VirtAddr(g.M*edgeBytes), page)
	g.propBase = cur
	cur = addr.AlignUp(cur+addr.VirtAddr(g.N*propBytes), page)
	g.WorkBase = cur
	cur = addr.AlignUp(cur+addr.VirtAddr(g.N*propBytes), page)
	g.totalSpan = uint64(cur - g.Base)
}

// Degree returns node v's out-degree.
func (g *Graph) Degree(v uint32) uint64 {
	return g.offsets[uint64(v)+1] - g.offsets[uint64(v)]
}

func (g *Graph) String() string {
	return fmt.Sprintf("graph{N=%d M=%d span=%dMB}", g.N, g.M, g.totalSpan>>20)
}

// Address helpers: each models the load/store the kernel performs.

func (g *Graph) touchOffset(t Tracer, v uint64) uint64 {
	t(g.offBase + addr.VirtAddr(v*offsetBytes))
	return g.offsets[v]
}

func (g *Graph) touchEdge(t Tracer, j uint64) uint32 {
	t(g.edgeBase + addr.VirtAddr(j*edgeBytes))
	return g.edges[j]
}

func (g *Graph) touchProp(t Tracer, v uint64) {
	t(g.propBase + addr.VirtAddr(v*propBytes))
}

func (g *Graph) touchWork(t Tracer, i uint64) {
	t(g.WorkBase + addr.VirtAddr((i%g.N)*propBytes))
}

// neighbors iterates v's out-edges, touching the offset and edge arrays
// exactly as a CSR traversal does.
func (g *Graph) neighbors(t Tracer, v uint32, f func(u uint32)) {
	start := g.touchOffset(t, uint64(v))
	end := g.touchOffset(t, uint64(v)+1)
	for j := start; j < end; j++ {
		f(g.touchEdge(t, j))
	}
}

// BFS runs breadth-first search from root, emitting its access stream, and
// returns the number of reached nodes.
func (g *Graph) BFS(root uint32, t Tracer) uint64 {
	visited := make([]bool, g.N)
	queue := []uint32{root}
	visited[root] = true
	var reached uint64 = 1
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		g.touchWork(t, uint64(qi)) // queue pop
		g.neighbors(t, v, func(u uint32) {
			g.touchProp(t, uint64(u)) // visited check
			if !visited[u] {
				visited[u] = true
				reached++
				g.touchWork(t, uint64(len(queue))) // queue push
				queue = append(queue, u)
			}
		})
	}
	return reached
}

// DFS runs depth-first search from root and returns the reached count.
func (g *Graph) DFS(root uint32, t Tracer) uint64 {
	visited := make([]bool, g.N)
	stack := []uint32{root}
	var reached uint64
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		g.touchWork(t, uint64(len(stack)))
		g.touchProp(t, uint64(v))
		if visited[v] {
			continue
		}
		visited[v] = true
		reached++
		g.neighbors(t, v, func(u uint32) {
			if !visited[u] {
				stack = append(stack, u)
			}
		})
	}
	return reached
}

// PageRank runs iters power iterations and returns the final rank mass
// (≈1.0, for validation).
func (g *Graph) PageRank(iters int, t Tracer) float64 {
	const damping = 0.85
	rank := make([]float64, g.N)
	next := make([]float64, g.N)
	for i := range rank {
		rank[i] = 1 / float64(g.N)
	}
	for it := 0; it < iters; it++ {
		base := (1 - damping) / float64(g.N)
		for i := range next {
			next[i] = base
		}
		for v := uint64(0); v < g.N; v++ {
			g.touchProp(t, v) // rank[v] load
			d := g.Degree(uint32(v))
			if d == 0 {
				continue
			}
			share := damping * rank[v] / float64(d)
			g.neighbors(t, uint32(v), func(u uint32) {
				g.touchWork(t, uint64(u)) // next[u] accumulate
				next[u] += share
			})
		}
		rank, next = next, rank
	}
	var sum float64
	for _, r := range rank {
		sum += r
	}
	return sum
}

// ConnectedComponents labels nodes by repeated label propagation (on the
// directed edges, treated as undirected for propagation) and returns the
// number of distinct labels.
func (g *Graph) ConnectedComponents(t Tracer) uint64 {
	label := make([]uint32, g.N)
	for i := range label {
		label[i] = uint32(i)
	}
	changed := true
	for pass := 0; changed && pass < 32; pass++ {
		changed = false
		for v := uint64(0); v < g.N; v++ {
			g.touchProp(t, v)
			g.neighbors(t, uint32(v), func(u uint32) {
				g.touchWork(t, uint64(u))
				if label[u] < label[v] {
					label[v] = label[u]
					changed = true
				} else if label[v] < label[u] {
					label[u] = label[v]
					changed = true
				}
			})
		}
	}
	seen := map[uint32]bool{}
	for _, l := range label {
		seen[l] = true
	}
	return uint64(len(seen))
}

// DegreeCentrality computes per-node degree (one sequential CSR sweep).
func (g *Graph) DegreeCentrality(t Tracer) uint64 {
	var max uint64
	for v := uint64(0); v < g.N; v++ {
		s := g.touchOffset(t, v)
		e := g.touchOffset(t, v+1)
		g.touchProp(t, v)
		if e-s > max {
			max = e - s
		}
	}
	return max
}

// SSSP runs a Bellman-Ford-style relaxation with unit weights for rounds
// iterations and returns the number of reachable nodes from root.
func (g *Graph) SSSP(root uint32, rounds int, t Tracer) uint64 {
	const inf = ^uint32(0)
	dist := make([]uint32, g.N)
	for i := range dist {
		dist[i] = inf
	}
	dist[root] = 0
	for r := 0; r < rounds; r++ {
		changed := false
		for v := uint64(0); v < g.N; v++ {
			g.touchProp(t, v)
			if dist[v] == inf {
				continue
			}
			g.neighbors(t, uint32(v), func(u uint32) {
				g.touchWork(t, uint64(u))
				if dist[v]+1 < dist[u] {
					dist[u] = dist[v] + 1
					changed = true
				}
			})
		}
		if !changed {
			break
		}
	}
	var reached uint64
	for _, d := range dist {
		if d != inf {
			reached++
		}
	}
	return reached
}

// TriangleCount counts triangles among the first sample nodes (exact
// counting is cubic; GraphBIG also bounds it) and returns the count.
func (g *Graph) TriangleCount(sample uint64, t Tracer) uint64 {
	if sample > g.N {
		sample = g.N
	}
	// Adjacency lists of sampled nodes, deduplicated in neighbors order;
	// the sets answer membership only, so the trace never depends on map
	// iteration order.
	adj := make([][]uint32, sample)
	set := make([]map[uint32]bool, sample)
	for v := uint64(0); v < sample; v++ {
		set[v] = make(map[uint32]bool)
		g.neighbors(t, uint32(v), func(u uint32) {
			if uint64(u) < sample && !set[v][u] {
				set[v][u] = true
				adj[v] = append(adj[v], u)
			}
		})
	}
	var count uint64
	for v := uint64(0); v < sample; v++ {
		for _, u := range adj[v] {
			g.touchProp(t, uint64(u))
			for _, w := range adj[u] {
				g.touchWork(t, uint64(w))
				if set[v][w] {
					count++
				}
			}
		}
	}
	return count / 3
}

// BetweennessCentrality runs Brandes' algorithm from sources sampled
// nodes and returns the maximum centrality score (for validation).
func (g *Graph) BetweennessCentrality(sources uint64, t Tracer) float64 {
	if sources > g.N {
		sources = g.N
	}
	bc := make([]float64, g.N)
	for s := uint64(0); s < sources; s++ {
		// Forward BFS phase recording predecessors and path counts.
		sigma := make([]float64, g.N)
		dist := make([]int32, g.N)
		for i := range dist {
			dist[i] = -1
		}
		sigma[s] = 1
		dist[s] = 0
		order := []uint32{uint32(s)}
		preds := make([][]uint32, g.N)
		for qi := 0; qi < len(order); qi++ {
			v := order[qi]
			g.touchWork(t, uint64(qi))
			g.neighbors(t, v, func(u uint32) {
				g.touchProp(t, uint64(u))
				if dist[u] < 0 {
					dist[u] = dist[v] + 1
					order = append(order, u)
				}
				if dist[u] == dist[v]+1 {
					sigma[u] += sigma[v]
					preds[u] = append(preds[u], v)
				}
			})
		}
		// Backward accumulation.
		delta := make([]float64, g.N)
		for i := len(order) - 1; i >= 0; i-- {
			w := order[i]
			g.touchWork(t, uint64(i))
			for _, v := range preds[w] {
				g.touchProp(t, uint64(v))
				delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
			}
			if uint64(w) != s {
				bc[w] += delta[w]
			}
		}
	}
	var max float64
	for _, b := range bc {
		if b > max {
			max = b
		}
	}
	return max
}

// Run executes the named kernel with reasonable default parameters,
// returning an opaque checksum for validation.
func (g *Graph) Run(kernel string, t Tracer) (float64, error) {
	switch kernel {
	case "BFS":
		return float64(g.BFS(0, t)), nil
	case "DFS":
		return float64(g.DFS(0, t)), nil
	case "PR":
		return g.PageRank(3, t), nil
	case "CC":
		return float64(g.ConnectedComponents(t)), nil
	case "DC":
		return float64(g.DegreeCentrality(t)), nil
	case "SSSP":
		return float64(g.SSSP(0, 8, t)), nil
	case "TC":
		return float64(g.TriangleCount(min64(g.N, 2000), t)), nil
	case "BC":
		return g.BetweennessCentrality(min64(g.N, 8), t), nil
	}
	return 0, fmt.Errorf("graph: unknown kernel %q", kernel)
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
