package sim

import (
	"fmt"
	"math/rand"

	"kncube/internal/stats"
	"kncube/internal/topology"
	"kncube/internal/traffic"
)

// outChannel is one outgoing physical channel of a router, wired at
// construction time to the input-VC group it feeds on the downstream
// router (booksim-style explicit channel objects). The candidate list is
// the hot-loop workhorse: it holds exactly the input VCs whose message has
// been allocated to this channel, so per-cycle arbitration touches only
// VCs that can actually move a flit instead of scanning every input VC.
type outChannel struct {
	// id is the channel's index in Network.chans and Network.chanFlits
	// (node*outputs + ch). in and dvc are the offsets in Network.vcs of
	// the owning router's input VCs and of the VC group this channel
	// feeds, so arbitration reaches both without loading either router;
	// base is the offset of that group in down.in (input port index
	// equals the output channel index, so base = ch*VCs).
	id, in, dvc, base int

	// cand lists the flattened input-VC indices of the owning router
	// currently routed to this channel and not parked, in ascending order.
	// Maintained incrementally: allocate inserts on a successful claim,
	// forward removes when the tail flit leaves or the candidate parks,
	// and a wake re-inserts a parked candidate.
	cand []int16

	// rr is the round-robin arbitration pointer (flattened port*VCs+vc),
	// advanced past the last grant.
	rr int

	// src is the owning router and down the router this channel feeds.
	// The fields above fit one cache line; arbitration reaches these
	// only to wake or release.
	src, down *router

	// waiting[c] lists the owning router's headers routed to this channel
	// that found every downstream VC of their Dally-Seitz class held and
	// parked (c = 0 for VCs [0, V/2), 1 for [V/2, V)). Releasing one of
	// those VCs moves the whole list back to pending.
	waiting [2][]int16
}

// router holds the per-node state: input ports (one per dimension plus the
// injection port), the infinite source queue, the arrival process,
// round-robin arbitration pointers, and the incrementally-maintained
// scheduling lists that keep the hot loop proportional to the number of
// movable flits rather than the number of virtual channels.
type router struct {
	node topology.NodeID

	// in holds the input virtual channels, flattened as p*VCs+v. Network
	// ports are indexed d*dirs+dir: in the unidirectional network
	// (dirs = 1) port d receives from the dimension-d predecessor; with
	// bidirectional links (dirs = 2) port 2d receives positive-direction
	// traffic and port 2d+1 negative-direction traffic. The last port is
	// the injection port fed by the local PE.
	in []vc

	// out holds the router's network output channels, wired to their
	// downstream routers at construction.
	out []outChannel

	// srcQ is the infinite injection queue (FIFO; head index qHead avoids
	// O(n) pops).
	srcQ  []*Message
	qHead int

	arr     traffic.Arrivals
	nextGen int64

	// rrEj is the round-robin pointer for the ejection channel; rrAlloc
	// rotates the virtual-channel allocation scan so competing headers
	// (e.g. through-traffic vs. local injection) share fairly; rrInj
	// rotates injection-VC service.
	rrEj    int
	rrInj   int
	rrAlloc int

	// busyVCs counts held input VCs; the router is skipped entirely when
	// it has no held VCs and an empty queue.
	busyVCs int

	// pending lists (ascending, flattened) the held VCs whose header has
	// arrived, has no output allocated yet and is not parked — the only
	// VCs the allocation phase must visit. ejectQ lists the VCs allocated
	// to the ejection channel.
	pending []int16
	ejectQ  []int16

	// busyIn[p] counts held VCs on network input port p (msg != nil),
	// maintained incrementally so multiplexing-degree sampling needs no
	// VC scan. injLive counts injection VCs still receiving flits from
	// the PE (msg held, recvd < MsgLen) whose PE is not parked on a full
	// buffer, gating the injection phase.
	busyIn  []int32
	injLive int

	// up[p] is the router whose output channel p feeds network input port
	// p, where a moveOut or a release wakes the entry parked on it.
	up []*router

	// srcParked is set while the non-empty source queue found no free
	// injection VC; releasing an injection VC clears it.
	srcParked bool
}

func (r *router) queueLen() int { return len(r.srcQ) - r.qHead }

// insertSorted adds x to the ascending list s (which must not already
// contain it). The scheduling lists hold a handful of entries, so an
// insertion scan beats any clever structure.
func insertSorted(s []int16, x int16) []int16 {
	s = append(s, x) //lint:ignore hotalloc scheduling lists reuse capacity; len is bounded by VCs per router
	i := len(s) - 1
	for i > 0 && s[i-1] > x {
		s[i] = s[i-1]
		i--
	}
	s[i] = x
	return s
}

// removeSorted deletes x from the ascending list s, preserving order.
func removeSorted(s []int16, x int16) []int16 {
	for i, v := range s {
		if v == x {
			copy(s[i:], s[i+1:])
			return s[:len(s)-1]
		}
	}
	return s
}

func (r *router) popQueue() *Message {
	m := r.srcQ[r.qHead]
	r.srcQ[r.qHead] = nil
	r.qHead++
	if r.qHead > 1024 && r.qHead*2 >= len(r.srcQ) {
		n := copy(r.srcQ, r.srcQ[r.qHead:])
		r.srcQ = r.srcQ[:n]
		r.qHead = 0
	}
	return m
}

// Network is one instantiated simulation. Create with New, advance with
// Step or Run.
type Network struct {
	cfg     Config
	cube    *topology.Cube
	pattern traffic.Pattern
	rng     *rand.Rand
	routers []router
	// vcs and chans hold every router's input VCs and output channels,
	// router by router; router.in and router.out are windows onto them.
	vcs    []vc
	chans  []outChannel
	cycle  int64
	nextID int64

	dirs    int   // ring directions per dimension: 1 or 2
	outputs int   // network output channels per node: Dims*dirs
	injPort int   // index of the injection port (= outputs)
	nVC     int   // virtual channels per physical channel (= cfg.VCs)
	depth   int32 // buffer depth
	msgLen  int32

	step        stepState
	measureFrom int64
	measuring   bool

	// statistics
	injected, delivered       int64
	measured                  int64
	latAll, latReg, latHot    stats.Running
	netAll                    stats.Running // header-injection to delivery
	waitSrc                   stats.Running
	latHist                   *stats.Histogram
	batch                     *stats.BatchMeans
	chanFlits                 []int64 // flits moved per (node*Dims+dim) channel
	chanFlitsStart            []int64 // chanFlits snapshot at the current Run's start
	busyChanSamples, busyVCCt int64   // multiplexing-degree sampling
	hopsTotal                 int64

	delivCb func(*Message)

	// stepOverride, when non-nil, replaces Step in Run's cycle loop. Test
	// seam: the differential suite substitutes the scan-based reference
	// step so Run drives both implementations through the exact same
	// measurement machinery.
	stepOverride func()

	// coll receives instrumentation events; nil (the default) keeps the
	// hot path uninstrumented. draining is set while Drain runs so the
	// collector can distinguish drained deliveries.
	coll     Collector
	draining bool
}

// New builds a network from the configuration.
func New(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	cube, err := topology.New(cfg.K, cfg.Dims)
	if err != nil {
		return nil, err
	}
	pattern := cfg.Pattern
	if pattern == nil {
		pattern = traffic.Uniform{Cube: cube}
	}
	dirs := 1
	if cfg.Bidirectional {
		dirs = 2
	}
	outputs := cfg.Dims * dirs
	nw := &Network{
		cfg:     cfg,
		cube:    cube,
		pattern: pattern,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		routers: make([]router, cube.Nodes()),
		dirs:    dirs,
		outputs: outputs,
		injPort: outputs,
		nVC:     cfg.VCs,
		depth:   int32(cfg.BufDepth),
		msgLen:  int32(cfg.MsgLen),
		latHist: stats.NewHistogram(1),
		coll:    cfg.Collector,
	}
	nw.chanFlits = make([]int64, cube.Nodes()*outputs)
	nw.chanFlitsStart = make([]int64, cube.Nodes()*outputs)
	perRouter := (outputs + 1) * cfg.VCs
	nw.vcs = make([]vc, cube.Nodes()*perRouter)
	nw.chans = make([]outChannel, cube.Nodes()*outputs)
	for i := range nw.routers {
		r := &nw.routers[i]
		r.node = topology.NodeID(i)
		r.in = nw.vcs[i*perRouter : (i+1)*perRouter : (i+1)*perRouter]
		for v := range r.in {
			r.in[v].reset()
			r.in[v].port = int8(v / cfg.VCs)
		}
		r.out = nw.chans[i*outputs : (i+1)*outputs : (i+1)*outputs]
		r.busyIn = make([]int32, outputs)
		r.up = make([]*router, outputs)
		if cfg.ArrivalsFactory != nil {
			r.arr = cfg.ArrivalsFactory(r.node)
		} else {
			p, err := traffic.NewPoisson(cfg.Lambda)
			if err != nil {
				return nil, err
			}
			r.arr = p
		}
		r.nextGen = int64(r.arr.Next(nw.rng))
	}
	// Wire every output channel to the input-VC group it feeds downstream
	// (after the router slice is fully built, so the pointers are stable).
	for i := range nw.routers {
		r := &nw.routers[i]
		for ch := 0; ch < outputs; ch++ {
			oc := &r.out[ch]
			oc.src, oc.down = r, nw.downRouter(r.node, ch)
			oc.base = ch * cfg.VCs
			oc.id = i*outputs + ch
			oc.in = i * perRouter
			oc.dvc = int(oc.down.node)*perRouter + oc.base
			oc.down.up[ch] = r
		}
	}
	return nw, nil
}

// vcAt returns input virtual channel v of port p of r (testing aid; the
// hot loop indexes r.in directly).
func (nw *Network) vcAt(r *router, p, v int) *vc { return &r.in[p*nw.nVC+v] }

// Cube exposes the underlying topology.
func (nw *Network) Cube() *topology.Cube { return nw.cube }

// Cycle returns the current simulation time.
func (nw *Network) Cycle() int64 { return nw.cycle }

// Injected and Delivered return message counters.
func (nw *Network) Injected() int64  { return nw.injected }
func (nw *Network) Delivered() int64 { return nw.delivered }

// Backlog returns the total number of messages waiting in source queues or
// in flight.
func (nw *Network) Backlog() int64 { return nw.injected - nw.delivered }

// OnDeliver registers a callback invoked for every delivered message
// (testing and tracing aid).
func (nw *Network) OnDeliver(cb func(*Message)) { nw.delivCb = cb }

// vcClassRange returns the half-open virtual-channel index range [lo, hi)
// of the Dally-Seitz class for the next hop of msg at node cur using
// output channel ch. Class 1 ("high", indices [0, V/2)) is used until the
// message crosses the ring's wrap-around link; class 0 ("low", [V/2, V))
// afterwards. Each (dimension, direction) ring has its own disjoint channel
// set, so the two-class argument applies per ring. Injection VCs are
// outside the ring dependency cycle, so this applies only to network hops.
func (nw *Network) vcClassRange(msg *Message, cur topology.NodeID, ch int) (int, int) {
	v := nw.cfg.VCs
	half := v / 2
	if nw.wrappedAfter(msg, cur, ch) {
		return half, v // class 0
	}
	return 0, half // class 1
}

// wrappedAfter reports whether, after taking output channel ch at cur, msg
// will have crossed the wrap-around link of ch's ring. Minimal routing
// moves each dimension monotonically in one direction, so the source and
// current coordinates determine the answer regardless of dimension
// interleaving.
func (nw *Network) wrappedAfter(msg *Message, cur topology.NodeID, ch int) bool {
	d := ch / nw.dirs
	c := nw.cube.Coord(cur, d)
	s := nw.cube.Coord(msg.Src, d)
	if ch%nw.dirs == 0 {
		// Positive ring: the wrap link is k-1 -> 0; having moved only
		// forward, the message has wrapped iff it is now below its source
		// coordinate.
		return c == nw.cfg.K-1 || c < s
	}
	// Negative ring: the wrap link is 0 -> k-1; moving only backward,
	// wrapped iff now above the source coordinate.
	return c == 0 || c > s
}

// escapeVC returns the escape virtual channel index for msg taking output
// ch under adaptive routing: VC 0 holds escape class 1, VC 1 escape
// class 0.
func (nw *Network) escapeVC(msg *Message, cur topology.NodeID, ch int) int {
	if nw.wrappedAfter(msg, cur, ch) {
		return 1
	}
	return 0
}

// adaptiveCandidate scans the productive (minimal) outputs of msg at cur
// for a free adaptive virtual channel (indices 2..V-1), preferring the
// dimension with the most remaining hops.
func (nw *Network) adaptiveCandidate(msg *Message, cur topology.NodeID) (ch, dv int, ok bool) {
	bestCh, bestDv, bestDist := -1, -1, 0
	for d := 0; d < nw.cfg.Dims; d++ {
		if nw.cube.Coord(cur, d) == nw.cube.Coord(msg.Dst, d) {
			continue
		}
		var out, dist int
		if nw.dirs == 1 {
			out = d
			dist = nw.cube.RingDistance(cur, msg.Dst, d)
		} else {
			if nw.cube.BiDirection(cur, msg.Dst, d) > 0 {
				out = d * nw.dirs
			} else {
				out = d*nw.dirs + 1
			}
			dist = nw.cube.BiRingDistance(cur, msg.Dst, d)
		}
		if dist <= bestDist {
			continue
		}
		oc := &nw.routers[cur].out[out]
		for v := 2; v < nw.cfg.VCs; v++ {
			if oc.down.in[oc.base+v].msg == nil {
				bestCh, bestDv, bestDist = out, v, dist
				break
			}
		}
	}
	if bestCh < 0 {
		return 0, 0, false
	}
	return bestCh, bestDv, true
}

// downRouter returns the router reached through output channel ch of node.
func (nw *Network) downRouter(node topology.NodeID, ch int) *router {
	d := ch / nw.dirs
	if ch%nw.dirs == 0 {
		return &nw.routers[nw.cube.Neighbor(node, d)]
	}
	return &nw.routers[nw.cube.Prev(node, d)]
}

// route returns the output channel for the header of msg standing at node
// cur: the first dimension (in increasing order) whose coordinate differs
// from the destination (taking the shorter direction when the network is
// bidirectional, ties positive), or the ejection marker when cur == dst.
func (nw *Network) route(msg *Message, cur topology.NodeID) int8 {
	for d := 0; d < nw.cfg.Dims; d++ {
		if nw.cube.Coord(cur, d) == nw.cube.Coord(msg.Dst, d) {
			continue
		}
		if nw.dirs == 1 {
			return int8(d)
		}
		if nw.cube.BiDirection(cur, msg.Dst, d) > 0 {
			return int8(d * nw.dirs)
		}
		return int8(d*nw.dirs + 1)
	}
	return int8(nw.injPort) // ejection marker (same index as injection port)
}

func (nw *Network) invariant(cond bool, format string, args ...any) {
	if nw.cfg.CheckInvariants && !cond {
		panic("sim: invariant violated: " + fmt.Sprintf(format, args...))
	}
}
