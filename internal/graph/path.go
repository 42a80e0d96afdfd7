package graph

import (
	"fmt"
	"math"

	"jcr/internal/par"
)

// Path is a sequence of arc IDs forming a walk in a graph.
type Path struct {
	Arcs []ArcID
}

// Nodes returns the node sequence visited by the path in g, starting at the
// path's source. An empty path returns nil.
func (p Path) Nodes(g *Graph) []NodeID {
	if len(p.Arcs) == 0 {
		return nil
	}
	nodes := make([]NodeID, 0, len(p.Arcs)+1)
	nodes = append(nodes, g.Arc(p.Arcs[0]).From)
	for _, id := range p.Arcs {
		nodes = append(nodes, g.Arc(id).To)
	}
	return nodes
}

// Cost returns the total routing cost of the path in g.
func (p Path) Cost(g *Graph) float64 {
	var c float64
	for _, id := range p.Arcs {
		c += g.Arc(id).Cost
	}
	return c
}

// Len reports the number of arcs on the path.
func (p Path) Len() int { return len(p.Arcs) }

// Source returns the first node of the path, or -1 if the path is empty.
func (p Path) Source(g *Graph) NodeID {
	if len(p.Arcs) == 0 {
		return -1
	}
	return g.Arc(p.Arcs[0]).From
}

// Dest returns the last node of the path, or -1 if the path is empty.
func (p Path) Dest(g *Graph) NodeID {
	if len(p.Arcs) == 0 {
		return -1
	}
	return g.Arc(p.Arcs[len(p.Arcs)-1]).To
}

// Validate checks that the path is a contiguous cycle-free walk from src to
// dst in g.
func (p Path) Validate(g *Graph, src, dst NodeID) error {
	if len(p.Arcs) == 0 {
		if src != dst {
			return fmt.Errorf("graph: empty path but src %d != dst %d", src, dst)
		}
		return nil
	}
	nodes := p.Nodes(g)
	if nodes[0] != src {
		return fmt.Errorf("graph: path starts at %d, want %d", nodes[0], src)
	}
	if nodes[len(nodes)-1] != dst {
		return fmt.Errorf("graph: path ends at %d, want %d", nodes[len(nodes)-1], dst)
	}
	for k := 1; k < len(p.Arcs); k++ {
		if g.Arc(p.Arcs[k]).From != g.Arc(p.Arcs[k-1]).To {
			return fmt.Errorf("graph: path not contiguous at hop %d", k)
		}
	}
	seen := make(map[NodeID]struct{}, len(nodes))
	for _, v := range nodes {
		if _, dup := seen[v]; dup {
			return fmt.Errorf("graph: path revisits node %d", v)
		}
		seen[v] = struct{}{}
	}
	return nil
}

// ShortestTree holds the result of a single-source shortest-path run.
type ShortestTree struct {
	Source NodeID
	// Dist[v] is the least cost from Source to v (math.Inf(1) if
	// unreachable).
	Dist []float64
	// ParentArc[v] is the arc entering v on a least-cost path from
	// Source, or -1 for the source and unreachable nodes.
	ParentArc []ArcID
}

// PathTo reconstructs a least-cost path from the tree's source to v. The
// boolean result is false if v is unreachable.
func (t ShortestTree) PathTo(g *Graph, v NodeID) (Path, bool) {
	if math.IsInf(t.Dist[v], 1) {
		return Path{}, false
	}
	var rev []ArcID
	for v != t.Source {
		id := t.ParentArc[v]
		rev = append(rev, id)
		v = g.Arc(id).From
	}
	arcs := make([]ArcID, len(rev))
	for i := range rev {
		arcs[i] = rev[len(rev)-1-i]
	}
	return Path{Arcs: arcs}, true
}

// dijkstraCSR runs the canonical shortest-path kernel from src over the
// CSR view into s, which must hold a freshly reset epoch. Settle order is
// ascending (dist, node), relaxation is strictly improving, and each
// node's out-arcs are scanned in ascending arc-ID order; together these
// make the parent of every node the arc minimizing
// (dist[tail], tail, arc ID) among the arcs attaining its distance. The
// resulting tree is a pure function of the graph — no heap accidents —
// which is what lets the repair engine reproduce trees bit for bit
// (DESIGN.md §3.10). goal >= 0 stops the run as soon as goal settles (its
// distance and parent chain are final then); pass -1 for a full tree.
//
//jcr:hotpath
func dijkstraCSR(c *csr, src, goal NodeID, s *scratch, skipArc func(ArcID) bool, skipNode func(NodeID) bool) {
	sv := int32(src)
	s.visit(sv)
	s.dist[sv] = 0
	s.heapFix(s.dist, sv)
	for len(s.heap) > 0 {
		v := s.heapPop(s.dist)
		if int(v) == goal {
			return
		}
		d := s.dist[v]
		for j := c.fwdHead[v]; j < c.fwdHead[v+1]; j++ {
			id := c.fwdArc[j]
			if skipArc != nil && skipArc(ArcID(id)) {
				continue
			}
			w := c.fwdTo[j]
			if skipNode != nil && NodeID(w) != src && skipNode(NodeID(w)) {
				continue
			}
			nd := d + c.fwdCost[j]
			s.visit(w)
			if nd < s.dist[w] {
				s.dist[w] = nd
				s.parent[w] = id
				s.heapFix(s.dist, w)
			}
		}
	}
}

// dijkstraCSRPlain is the no-predicate full-tree kernel: identical settle
// order, relaxation, and tie behaviour to dijkstraCSR with nil predicates,
// minus the two predicate nil-checks per scanned arc and with the CSR
// arrays hoisted out of the loop. Full-tree entry points without
// predicates (TreeOf, AllPairs, the engine's unmasked cold path) all land
// here.
//
//jcr:hotpath
func dijkstraCSRPlain(c *csr, src NodeID, s *scratch) {
	sv := int32(src)
	s.visit(sv)
	s.dist[sv] = 0
	s.heapFix(s.dist, sv)
	fwdTo, fwdCost, fwdArc := c.fwdTo, c.fwdCost, c.fwdArc
	for len(s.heap) > 0 {
		v := s.heapPop(s.dist)
		d := s.dist[v]
		for j := c.fwdHead[v]; j < c.fwdHead[v+1]; j++ {
			w := fwdTo[j]
			nd := d + fwdCost[j]
			if s.stamp[w] != s.cur {
				// First touch always improves on the implicit
				// +inf, so fuse the epoch init with the relax.
				s.stamp[w] = s.cur
				s.dist[w] = nd
				s.parent[w] = fwdArc[j]
				s.pos[w] = -1
				s.heapFix(s.dist, w)
			} else if nd < s.dist[w] {
				s.dist[w] = nd
				s.parent[w] = fwdArc[j]
				s.heapFix(s.dist, w)
			}
		}
	}
}

// dijkstraCSRBan is dijkstraCSR with the ban predicates flattened to bool
// arrays, the shape of Yen's spur searches. Identical settle order,
// relaxation, and tie behaviour — only the per-arc indirect calls are gone,
// which matters when the kernel runs hundreds of times per Yen invocation.
// banNode[src] must be false (Yen never bans the spur node).
//
//jcr:hotpath
func dijkstraCSRBan(c *csr, src, goal NodeID, s *scratch, banArc, banNode []bool) {
	sv := int32(src)
	s.visit(sv)
	s.dist[sv] = 0
	s.heapFix(s.dist, sv)
	fwdTo, fwdCost, fwdArc := c.fwdTo, c.fwdCost, c.fwdArc
	for len(s.heap) > 0 {
		v := s.heapPop(s.dist)
		if int(v) == goal {
			return
		}
		d := s.dist[v]
		for j := c.fwdHead[v]; j < c.fwdHead[v+1]; j++ {
			if banArc[fwdArc[j]] {
				continue
			}
			w := fwdTo[j]
			if banNode[w] {
				continue
			}
			nd := d + fwdCost[j]
			if s.stamp[w] != s.cur {
				s.stamp[w] = s.cur
				s.dist[w] = nd
				s.parent[w] = fwdArc[j]
				s.pos[w] = -1
				s.heapFix(s.dist, w)
			} else if nd < s.dist[w] {
				s.dist[w] = nd
				s.parent[w] = fwdArc[j]
				s.heapFix(s.dist, w)
			}
		}
	}
}

// dijkstraCSRMask is the full-tree kernel with the engine's disabled-arc
// bitmask inlined (nil means nothing disabled). Same canonical behaviour as
// dijkstraCSR; it exists so the engine's cold path and repairs do not pay an
// indirect call per scanned arc.
//
//jcr:hotpath
func dijkstraCSRMask(c *csr, src NodeID, s *scratch, mask []uint64) {
	if mask == nil {
		dijkstraCSRPlain(c, src, s)
		return
	}
	sv := int32(src)
	s.visit(sv)
	s.dist[sv] = 0
	s.heapFix(s.dist, sv)
	fwdTo, fwdCost, fwdArc := c.fwdTo, c.fwdCost, c.fwdArc
	for len(s.heap) > 0 {
		v := s.heapPop(s.dist)
		d := s.dist[v]
		for j := c.fwdHead[v]; j < c.fwdHead[v+1]; j++ {
			id := fwdArc[j]
			if mask[id>>6]&(1<<(uint(id)&63)) != 0 {
				continue
			}
			w := fwdTo[j]
			nd := d + fwdCost[j]
			if s.stamp[w] != s.cur {
				s.stamp[w] = s.cur
				s.dist[w] = nd
				s.parent[w] = id
				s.pos[w] = -1
				s.heapFix(s.dist, w)
			} else if nd < s.dist[w] {
				s.dist[w] = nd
				s.parent[w] = id
				s.heapFix(s.dist, w)
			}
		}
	}
}

// dijkstraCSRWeights is dijkstraCSRPlain with every arc weighed by w[id]
// instead of its cost: identical settle order, relaxation and tie
// behaviour, so the tree is the canonical one of the reweighted graph.
//
//jcr:hotpath
func dijkstraCSRWeights(c *csr, src NodeID, s *scratch, w []float64) {
	sv := int32(src)
	s.visit(sv)
	s.dist[sv] = 0
	s.heapFix(s.dist, sv)
	fwdTo, fwdArc := c.fwdTo, c.fwdArc
	for len(s.heap) > 0 {
		v := s.heapPop(s.dist)
		d := s.dist[v]
		for j := c.fwdHead[v]; j < c.fwdHead[v+1]; j++ {
			u := fwdTo[j]
			nd := d + w[fwdArc[j]]
			if s.stamp[u] != s.cur {
				s.stamp[u] = s.cur
				s.dist[u] = nd
				s.parent[u] = fwdArc[j]
				s.pos[u] = -1
				s.heapFix(s.dist, u)
			} else if nd < s.dist[u] {
				s.dist[u] = nd
				s.parent[u] = fwdArc[j]
				s.heapFix(s.dist, u)
			}
		}
	}
}

// extractTree materializes the scratch of a completed full run (goal -1)
// as a ShortestTree; unstamped nodes were never reached.
func (s *scratch) extractTree(src NodeID, n int) ShortestTree {
	dist := make([]float64, n)
	parent := make([]ArcID, n)
	for v := 0; v < n; v++ {
		if s.stamp[v] == s.cur {
			dist[v] = s.dist[v]
			parent[v] = ArcID(s.parent[v])
		} else {
			dist[v] = posInf
			parent[v] = -1
		}
	}
	return ShortestTree{Source: src, Dist: dist, ParentArc: parent}
}

// path reconstructs the settled src->dst path straight from the scratch,
// valid as soon as dst has settled (so usable after a goal-bounded run).
func (s *scratch) path(g *Graph, src, dst NodeID) (Path, bool) {
	d := int32(dst)
	if s.stamp[d] != s.cur || math.IsInf(s.dist[d], 1) {
		return Path{}, false
	}
	var rev []ArcID
	for int(d) != src {
		id := s.parent[d]
		rev = append(rev, ArcID(id))
		d = int32(g.arcs[id].From)
	}
	arcs := make([]ArcID, len(rev))
	for i := range rev {
		arcs[i] = rev[len(rev)-1-i]
	}
	return Path{Arcs: arcs}, true
}

// Dijkstra computes least-cost paths from src using arc costs. Capacities
// are ignored. The skipArc predicate, if non-nil, excludes arcs for which it
// returns true; the skipNode predicate likewise excludes nodes (other than
// src). Either may be nil.
//
// Ties between equal-cost shortest paths break canonically (see
// dijkstraCSR), so the returned tree is a pure function of the graph and
// the predicates. Call sites without predicates should prefer TreeOf, or
// Engine.Tree when trees repeat across calls (both identical bit for bit);
// the jcrlint sp-engine analyzer flags direct Dijkstra calls outside this
// package.
func Dijkstra(g *Graph, src NodeID, skipArc func(ArcID) bool, skipNode func(NodeID) bool) ShortestTree {
	c := g.view()
	s := acquireScratch(c.n)
	if skipArc == nil && skipNode == nil {
		dijkstraCSRPlain(c, src, s)
	} else {
		dijkstraCSR(c, src, -1, s, skipArc, skipNode)
	}
	t := s.extractTree(src, c.n)
	releaseScratch(s)
	return t
}

// TreeOf is the one-shot full-tree entry point: the canonical shortest-path
// tree of g from src. It equals Engine.Tree on the same graph bit for bit;
// use an Engine instead when the same or nearly the same tree is needed
// repeatedly (across alternating rounds, fault hours, or replica loops).
func TreeOf(g *Graph, src NodeID) ShortestTree {
	return Dijkstra(g, src, nil, nil)
}

// TreeOfWeights is TreeOf with arc id weighing w[id] in place of its
// cost: the canonical shortest-path tree of g from src under those
// weights, ties broken exactly as TreeOf breaks them. w must have one
// entry per arc, every one nonnegative (Dijkstra's precondition); a +Inf
// weight never relaxes, so it removes the arc. Column-generation pricing
// runs it over dual-adjusted costs.
func TreeOfWeights(g *Graph, src NodeID, w []float64) ShortestTree {
	if len(w) != g.NumArcs() {
		//jcrlint:allow lib-panic: programmer-error guard; callers size the weights from NumArcs
		panic(fmt.Sprintf("graph: %d weights for %d arcs", len(w), g.NumArcs()))
	}
	c := g.view()
	s := acquireScratch(c.n)
	dijkstraCSRWeights(c, src, s, w)
	t := s.extractTree(src, c.n)
	releaseScratch(s)
	return t
}

// AllPairs computes the pairwise least costs w_{v->s} for all ordered node
// pairs by running the shortest-path kernel from every node, fanning the
// sources out over the par worker pool. Result[v][s] is the least cost
// from v to s. Each worker draws its own pooled scratch and writes only
// its own row, and distances are tie-independent, so the result is
// identical to the sequential loop regardless of worker count.
func AllPairs(g *Graph) [][]float64 {
	c := g.view()
	n := c.n
	dist := make([][]float64, n)
	if err := par.Do(nil, 0, n, func(v int) error {
		s := acquireScratch(n)
		dijkstraCSRPlain(c, NodeID(v), s)
		row := make([]float64, n)
		for w := 0; w < n; w++ {
			if s.stamp[w] == s.cur {
				row[w] = s.dist[w]
			} else {
				row[w] = posInf
			}
		}
		dist[v] = row
		releaseScratch(s)
		return nil
	}); err != nil {
		//jcrlint:allow lib-panic: programmer-error guard; no context is threaded and the per-source closures cannot fail
		panic(err)
	}
	return dist
}

// MaxFinite returns the maximum finite value in a pairwise distance matrix,
// i.e. the w_max bound used by Algorithm 1. It returns 0 for an empty
// matrix.
func MaxFinite(dist [][]float64) float64 {
	var m float64
	for _, row := range dist {
		for _, d := range row {
			if !math.IsInf(d, 1) && d > m {
				m = d
			}
		}
	}
	return m
}
