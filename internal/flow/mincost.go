// Package flow implements single-commodity network-flow algorithms on the
// library's directed graphs: minimum-cost flow via successive shortest
// paths with Johnson potentials, Edmonds-Karp maximum flow, and the
// decomposition of arc flows into at most |E| simple paths used throughout
// the paper (Algorithm 2 line 2, Section 4.3.1).
package flow

import (
	"context"
	"errors"
	"fmt"
	"math"

	"jcr/internal/graph"
)

// ErrInsufficientCapacity reports that the requested flow value exceeds the
// network's capacity between the endpoints.
var ErrInsufficientCapacity = errors.New("flow: insufficient capacity")

const (
	// eps is the flow magnitude below which a value counts as zero.
	eps = 1e-9
	// distTol is the strict-improvement margin for Dijkstra labels; it
	// keeps float residue from re-relaxing settled nodes.
	distTol = 1e-12
	// arcEpsRel scales the per-arc zero threshold used by Decompose
	// with the total demand.
	arcEpsRel = 1e-12
)

// Result is a computed single-commodity flow.
type Result struct {
	// Arc[id] is the flow on arc id of the input graph.
	Arc []float64
	// Value is the total flow shipped from source to sink.
	Value float64
	// Cost is the total routing cost sum_e w_e * Arc[e].
	Cost float64
}

// residual network: arcs stored in pairs, forward 2k and backward 2k+1.
type resNet struct {
	n    int
	head []int // head[v]: first residual-arc index of v, -1 if none
	next []int // next[a]: next residual arc from the same tail
	to   []int
	cap  []float64
	cost []float64
	orig []graph.ArcID // orig[a]: the input arc this residual arc came from

	// Dijkstra scratch, reused across the successive-shortest-path
	// augmentations (one dijkstra call per augmentation adds up on dense
	// instances; reusing the labels and the heap keeps the inner loop
	// allocation-free).
	dist   []float64
	parent []int
	done   []bool
	heap   []hEnt
}

// hEnt is a binary-heap entry for Dijkstra: node v with tentative label d.
type hEnt struct {
	v int
	d float64
}

func newResNet(g *graph.Graph) *resNet {
	r := new(resNet)
	r.reset(g, nil)
	return r
}

// reset rebuilds r as the residual network of g in place, one arc pair per
// input arc in arc-ID order, reusing r's backing arrays. capOf, when
// non-nil, maps each arc (by ID and graph capacity) to the capacity the
// network gives it instead.
func (r *resNet) reset(g *graph.Graph, capOf func(id graph.ArcID, c float64) float64) {
	n, m := g.NumNodes(), g.NumArcs()
	r.n = n
	if cap(r.head) < n {
		r.head = make([]int, n)
	}
	r.head = r.head[:n]
	for v := range r.head {
		r.head[v] = -1
	}
	if cap(r.to) < 2*m {
		r.next = make([]int, 0, 2*m)
		r.to = make([]int, 0, 2*m)
		r.cap = make([]float64, 0, 2*m)
		r.cost = make([]float64, 0, 2*m)
		r.orig = make([]graph.ArcID, 0, 2*m)
	}
	r.next, r.to, r.cap, r.cost, r.orig = r.next[:0], r.to[:0], r.cap[:0], r.cost[:0], r.orig[:0]
	for id := 0; id < m; id++ {
		a := g.Arc(id)
		c := a.Cap
		if capOf != nil {
			c = capOf(id, c)
		}
		r.addPair(a.From, a.To, c, a.Cost, id)
	}
}

func (r *resNet) addPair(u, v int, capacity, cost float64, orig graph.ArcID) {
	r.to = append(r.to, v, u)
	r.cap = append(r.cap, capacity, 0)
	r.cost = append(r.cost, cost, -cost)
	r.orig = append(r.orig, orig, orig)
	f := len(r.to) - 2
	r.next = append(r.next, r.head[u], r.head[v])
	r.head[u] = f
	r.head[v] = f + 1
}

// heapPush inserts e into the scratch heap.
func (r *resNet) heapPush(e hEnt) {
	heap := append(r.heap, e)
	i := len(heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if heap[p].d <= heap[i].d {
			break
		}
		heap[p], heap[i] = heap[i], heap[p]
		i = p
	}
	r.heap = heap
}

// heapPop removes and returns the minimum entry of the scratch heap.
func (r *resNet) heapPop() hEnt {
	heap := r.heap
	e := heap[0]
	last := len(heap) - 1
	heap[0] = heap[last]
	heap = heap[:last]
	i := 0
	for {
		l, rr := 2*i+1, 2*i+2
		s := i
		if l < last && heap[l].d < heap[s].d {
			s = l
		}
		if rr < last && heap[rr].d < heap[s].d {
			s = rr
		}
		if s == i {
			break
		}
		heap[s], heap[i] = heap[i], heap[s]
		i = s
	}
	r.heap = heap
	return e
}

// dijkstra computes shortest reduced-cost distances from src; parent[v] is
// the residual arc entering v on the shortest path. The returned slices are
// the receiver's scratch, valid until the next call.
func (r *resNet) dijkstra(src int, pot []float64) (dist []float64, parent []int) {
	if cap(r.dist) < r.n {
		r.dist = make([]float64, r.n)
		r.parent = make([]int, r.n)
		r.done = make([]bool, r.n)
	}
	r.dist, r.parent, r.done = r.dist[:r.n], r.parent[:r.n], r.done[:r.n]
	dist, parent, done := r.dist, r.parent, r.done
	for v := range dist {
		dist[v] = math.Inf(1)
		parent[v] = -1
		done[v] = false
	}
	dist[src] = 0
	r.heap = r.heap[:0]
	r.heapPush(hEnt{src, 0})
	for len(r.heap) > 0 {
		e := r.heapPop()
		if done[e.v] || e.d > dist[e.v] {
			continue
		}
		done[e.v] = true
		for a := r.head[e.v]; a >= 0; a = r.next[a] {
			if r.cap[a] <= eps {
				continue
			}
			w := r.to[a]
			rc := r.cost[a] + pot[e.v] - pot[w]
			if rc < 0 {
				// Clamp tiny negatives from float accumulation;
				// potentials keep true reduced costs nonnegative.
				rc = 0
			}
			if nd := e.d + rc; nd < dist[w]-distTol {
				dist[w] = nd
				parent[w] = a
				r.heapPush(hEnt{w, nd})
			}
		}
	}
	return dist, parent
}

// MinCostFlow ships `value` units from src to dst at minimum cost using
// successive shortest paths. If the network cannot carry the requested
// value it discards the maximal partial flow and returns a
// *ShortfallError, which matches ErrInsufficientCapacity under errors.Is.
// Arc costs must be nonnegative, which graph.AddArc enforces. An infinite
// value ships as much as possible at minimum cost (min-cost max-flow).
func MinCostFlow(g *graph.Graph, src, dst graph.NodeID, value float64) (*Result, error) {
	return MinCostFlowContext(nil, g, src, dst, value)
}

// MinCostFlowContext is MinCostFlow with cooperative cancellation: the
// successive-shortest-path loop polls ctx before every augmentation and
// aborts with an error wrapping ctx.Err() once the context is done, so a
// caller-imposed deadline stops the solver between augmentations instead
// of running the instance to completion. A nil ctx means no cancellation
// (identical to MinCostFlow).
func MinCostFlowContext(ctx context.Context, g *graph.Graph, src, dst graph.NodeID, value float64) (*Result, error) {
	if src == dst {
		return &Result{Arc: make([]float64, g.NumArcs())}, nil
	}
	var nw Network
	nw.Reset(g, nil)
	if err := nw.MinCostFlow(ctx, src, dst, value); err != nil {
		return nil, err
	}
	return nw.r.extract(g, src), nil
}

// ShortfallError reports a min-cost flow whose requested value the network
// cannot carry: after shipping a maximum flow, Unrouted units are left
// with no augmenting path from Src to Dst. errors.Is(err,
// ErrInsufficientCapacity) holds for it.
type ShortfallError struct {
	Unrouted float64
	Src, Dst graph.NodeID
}

func (e *ShortfallError) Error() string {
	return fmt.Sprintf("%v: %.6g units unroutable from %d to %d", ErrInsufficientCapacity, e.Unrouted, e.Src, e.Dst)
}

// Unwrap makes errors.Is(err, ErrInsufficientCapacity) hold.
func (e *ShortfallError) Unwrap() error { return ErrInsufficientCapacity }

// Network is a residual network kept for reuse across min-cost flow
// solves. Reset rebuilds it in place from a graph, with optional per-arc
// capacity overrides; AddNode and AddArc extend it (a super-sink and its
// demand arcs, say) without touching the graph. After the first solve on
// graphs of one size, Reset, MinCostFlow and ArcFlow allocate nothing: the
// arc arrays, potentials and Dijkstra scratch are all reused. The zero
// value is ready to use. A Network is not safe for concurrent use.
//
// The arc order is that of cloning the graph and calling graph.AddNode and
// graph.AddArc on the clone, so a solve is bit-identical to MinCostFlow on
// that clone, ties included.
type Network struct {
	r   resNet
	pot []float64
}

// Reset rebuilds the network from g's nodes and arcs. capOf, when non-nil,
// gives the capacity of each arc (by ID, from its graph capacity) in place
// of the graph's; it is not retained.
func (nw *Network) Reset(g *graph.Graph, capOf func(id graph.ArcID, c float64) float64) {
	nw.r.reset(g, capOf)
}

// AddNode appends a node and returns its ID.
func (nw *Network) AddNode() graph.NodeID {
	nw.r.head = append(nw.r.head, -1)
	nw.r.n++
	return nw.r.n - 1
}

// AddArc appends an arc from u to v after the graph's arcs.
func (nw *Network) AddArc(u, v graph.NodeID, cost, capacity float64) {
	nw.r.addPair(u, v, capacity, cost, len(nw.r.to)/2)
}

// MinCostFlow ships value units from src to dst (src != dst) at minimum
// cost, as the package-level MinCostFlowContext does, leaving the arc
// flows in the network for ArcFlow. A value the network cannot carry
// returns a *ShortfallError.
func (nw *Network) MinCostFlow(ctx context.Context, src, dst graph.NodeID, value float64) error {
	r := &nw.r
	if cap(nw.pot) < r.n {
		nw.pot = make([]float64, r.n)
	}
	pot := nw.pot[:r.n]
	for v := range pot {
		pot[v] = 0
	}
	remaining := value
	// Relative tolerance: float dust at ~1e6 request-rate scale must not
	// read as unroutable demand.
	tol := eps
	if !math.IsInf(value, 1) {
		tol = eps * (1 + value)
	}
	for remaining > tol {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("flow: canceled with %.6g units unshipped: %w", remaining, err)
			}
		}
		dist, parent := r.dijkstra(src, pot)
		if math.IsInf(dist[dst], 1) {
			if math.IsInf(value, 1) {
				break // max flow reached
			}
			return &ShortfallError{Unrouted: remaining, Src: src, Dst: dst}
		}
		for v := 0; v < r.n; v++ {
			if !math.IsInf(dist[v], 1) {
				pot[v] += dist[v]
			}
		}
		// Bottleneck along the shortest path.
		bottleneck := remaining
		for v := dst; v != src; {
			a := parent[v]
			if r.cap[a] < bottleneck {
				bottleneck = r.cap[a]
			}
			v = r.to[a^1]
		}
		if math.IsInf(bottleneck, 1) {
			// Entire path uncapacitated; ship everything left.
			bottleneck = remaining
		}
		for v := dst; v != src; {
			a := parent[v]
			r.cap[a] -= bottleneck
			r.cap[a^1] += bottleneck
			v = r.to[a^1]
		}
		remaining -= bottleneck
	}
	return nil
}

// ArcFlow writes the flow of the last MinCostFlow on arcs 0..len(out)-1
// (graph arcs first, then added arcs, in order) into out, zeroing flows
// below the package's flow threshold.
func (nw *Network) ArcFlow(out []float64) {
	for id := range out {
		f := nw.r.cap[2*id+1]
		if f < eps {
			f = 0
		}
		out[id] = f
	}
}

func (r *resNet) extract(g *graph.Graph, src graph.NodeID) *Result {
	res := &Result{Arc: make([]float64, g.NumArcs())}
	for k := 0; k < len(r.to); k += 2 {
		// Flow on the original arc equals the residual capacity of the
		// backward arc.
		f := r.cap[k+1]
		if f < eps {
			continue
		}
		id := r.orig[k]
		res.Arc[id] += f
		res.Cost += f * g.Arc(id).Cost
	}
	res.Value = NetOutflow(g, res.Arc, src)
	return res
}

// NetOutflow computes the net outflow (out minus in) of node v under the
// arc flow.
func NetOutflow(g *graph.Graph, arcFlow []float64, v graph.NodeID) float64 {
	var net float64
	for _, id := range g.Out(v) {
		net += arcFlow[id]
	}
	for _, id := range g.In(v) {
		net -= arcFlow[id]
	}
	return net
}

// Cost computes the total routing cost of an arc flow.
func Cost(g *graph.Graph, arcFlow []float64) float64 {
	var c float64
	for id, f := range arcFlow {
		c += f * g.Arc(id).Cost
	}
	return c
}
