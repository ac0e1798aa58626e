package sim

import (
	"container/heap"

	"kncube/internal/topology"
)

// genHeap orders routers by their next generation time.
type genHeap struct {
	when []int64
	node []int32
}

func (h *genHeap) Len() int           { return len(h.when) }
func (h *genHeap) Less(i, j int) bool { return h.when[i] < h.when[j] }
func (h *genHeap) Swap(i, j int) {
	h.when[i], h.when[j] = h.when[j], h.when[i]
	h.node[i], h.node[j] = h.node[j], h.node[i]
}
func (h *genHeap) Push(x any) {
	p := x.([2]int64)
	h.when = append(h.when, p[0])        //lint:ignore hotalloc heap len never exceeds router count; capacity retained across Pop/Push
	h.node = append(h.node, int32(p[1])) //lint:ignore hotalloc heap len never exceeds router count; capacity retained across Pop/Push
}
func (h *genHeap) Pop() any {
	n := len(h.when) - 1
	v := [2]int64{h.when[n], int64(h.node[n])}
	h.when, h.node = h.when[:n], h.node[:n]
	return v
}

// stepState holds the per-Network mutable scheduling structures that Step
// uses; it is initialised lazily on the first Step call.
type stepState struct {
	gen genHeap
	// active lists the active routers in activation order. A router that
	// empties is retired in place — isActive cleared, its slot left stale
	// — and pos[i], router i's slot while it is active, orders only live
	// routers; dead counts the stale slots, and the list is compacted
	// once they are half of it. idle collects the routers a release may
	// have emptied this cycle.
	active   []int32
	isActive []bool
	pos      []int32
	dead     int
	idle     []int32

	// Per-phase worklists: the routers with an unparked entry for that
	// phase (pending header, eject-queue VC, injection VC the PE can
	// fill, source queue that may bind), and for forwarding the output
	// channels (Network.chans indices) with an unparked candidate.
	alloc, eject, fwd, inj, bind workList

	scratch []int16 // per-phase snapshot of a router's scheduling list
	inited  bool
}

// workList is a phase worklist of router or channel indices, each listed
// at most once.
type workList struct {
	ids []int32
	on  []bool
}

func (l *workList) add(i int32) {
	if !l.on[i] {
		l.on[i] = true
		l.ids = append(l.ids, i) //lint:ignore hotalloc worklist grows to its router or channel count once, then settle filters it in place
	}
}

// settle files the outcome of visiting entry id while the list is
// filtered in place: id stays, at position k, if it has work left, and is
// unlisted otherwise. It returns the next keep position.
func (l *workList) settle(k int, id int32, more bool) int {
	if more {
		l.ids[k] = id
		return k + 1
	}
	l.on[id] = false
	return k
}

// sortActive orders a worklist by active-list position. The lists are
// nearly sorted from the previous cycle, so insertion sort is linear.
func (st *stepState) sortActive(ids []int32) {
	for i := 1; i < len(ids); i++ {
		x := ids[i]
		j := i
		for j > 0 && st.pos[ids[j-1]] > st.pos[x] {
			ids[j] = ids[j-1]
			j--
		}
		ids[j] = x
	}
}

func (nw *Network) initStep() {
	st := &nw.step
	n := len(nw.routers)
	st.pos = make([]int32, n) //lint:ignore hotalloc one-time lazy init on the first Step
	for _, l := range []*workList{&st.alloc, &st.eject, &st.inj, &st.bind} {
		l.on = make([]bool, n) //lint:ignore hotalloc one-time lazy init on the first Step
	}
	st.fwd.on = make([]bool, len(nw.chans))         //lint:ignore hotalloc one-time lazy init on the first Step
	st.isActive = make([]bool, len(nw.routers))     //lint:ignore hotalloc one-time lazy init on the first Step
	st.gen.when = make([]int64, 0, len(nw.routers)) //lint:ignore hotalloc one-time lazy init on the first Step
	st.gen.node = make([]int32, 0, len(nw.routers)) //lint:ignore hotalloc one-time lazy init on the first Step
	for i := range nw.routers {
		st.gen.when = append(st.gen.when, nw.routers[i].nextGen) //lint:ignore hotalloc one-time lazy init on the first Step
		st.gen.node = append(st.gen.node, int32(i))              //lint:ignore hotalloc one-time lazy init on the first Step
	}
	heap.Init(&st.gen)
	st.inited = true
}

// live reports whether slot i of the active list, holding router ri, is
// that router's current slot.
func (st *stepState) live(i int, ri int32) bool {
	return st.isActive[ri] && int(st.pos[ri]) == i
}

func (nw *Network) activate(i int32) {
	st := &nw.step
	if !st.isActive[i] {
		st.isActive[i] = true
		st.pos[i] = int32(len(st.active))
		st.active = append(st.active, i) //lint:ignore hotalloc active list grows to at most about twice the router count (stale slots are compacted once they are half of it), then reslices in place
	}
}

// Step advances the simulation by one network cycle. The phase order within
// a cycle is: output-VC allocation for ready headers, ejection, network and
// injection channel arbitration (one flit per physical channel), message
// generation, and source-queue binding to free injection virtual channels.
// Eligibility uses start-of-cycle buffer state, so a flit crosses at most
// one channel per cycle.
//
// The loop is event-driven throughout. Routers join the active list
// only when a buffer or credit of theirs changes (a downstream claim, a
// generated message) and leave it when they hold nothing; within an active
// router every phase consults an incrementally-maintained list (pending
// headers, per-channel candidates, eject queue, live injection VCs) instead
// of scanning the full (ports+1)×VCs input array. An entry that cannot make
// progress parks off its list and is put back by the one event that
// unblocks it (see wakeIn, wakeOut and release), and each phase visits
// only the routers on its worklist, so per-cycle work is proportional to
// the flits that move plus the wake events, not to the virtual channels
// held. Arbitration visits the lists in the same rotating flattened-index
// order a full scan would use, and allocation and ejection visit routers
// in active-list order, which keeps every statistic bit-identical to the
// scan-based loop (the differential suite in differential_test.go pins
// this).
//
//khs:hotpath
func (nw *Network) Step() {
	if !nw.step.inited {
		nw.initStep()
	}
	st := &nw.step
	cyc := nw.cycle

	// Phase 1: route computation and output virtual-channel allocation.
	// Claims activate downstream routers, which fixes the active-list
	// order, so routers are visited in that order.
	st.sortActive(st.alloc.ids)
	k := 0
	for _, ri := range st.alloc.ids {
		r := &nw.routers[ri]
		nw.allocate(r, cyc)
		k = st.alloc.settle(k, ri, len(r.pending) > 0)
	}
	st.alloc.ids = st.alloc.ids[:k]
	// Phase 2: ejection, in active-list order too: deliveries feed the
	// order-dependent latency accumulators.
	st.sortActive(st.eject.ids)
	k = 0
	for _, ri := range st.eject.ids {
		r := &nw.routers[ri]
		nw.eject(r, cyc)
		k = st.eject.settle(k, ri, len(r.ejectQ) > 0)
	}
	st.eject.ids = st.eject.ids[:k]
	// Phase 3: network channel arbitration (one flit per output channel).
	// Channels are independent and eligibility is start-of-cycle state,
	// so their order does not matter. Channels a wake lists during this
	// phase are appended and skipped: a woken candidate can move only
	// from the next cycle.
	k = 0
	n := len(st.fwd.ids)
	for i := 0; i < n; i++ {
		id := st.fwd.ids[i]
		oc := &nw.chans[id]
		nw.forward(oc, cyc)
		k = st.fwd.settle(k, id, len(oc.cand) > 0)
	}
	st.fwd.ids = append(st.fwd.ids[:k], st.fwd.ids[n:]...) //lint:ignore hotalloc shifts the channels listed during the phase down in place; never grows
	// Phase 4: injection channel arbitration (one flit from the PE).
	k = 0
	for _, ri := range st.inj.ids {
		r := &nw.routers[ri]
		nw.inject(r, cyc)
		k = st.inj.settle(k, ri, r.injLive > 0)
	}
	st.inj.ids = st.inj.ids[:k]
	// Phase 5: message generation.
	for st.gen.Len() > 0 && st.gen.when[0] <= cyc {
		node := st.gen.node[0]
		nw.generate(&nw.routers[node], cyc)
		r := &nw.routers[node]
		st.gen.when[0] = r.nextGen
		heap.Fix(&st.gen, 0)
		nw.activate(node)
		if !r.srcParked {
			st.bind.add(node)
		}
	}
	// Phase 6: bind queued messages to free injection virtual channels.
	// Each listed queue either empties or parks, so the list empties.
	for _, ri := range st.bind.ids {
		nw.bind(&nw.routers[ri], cyc)
		st.bind.on[ri] = false
	}
	st.bind.ids = st.bind.ids[:0]

	// Retire the routers that emptied this cycle.
	for _, ri := range st.idle {
		if r := &nw.routers[ri]; st.isActive[ri] && r.busyVCs == 0 && r.queueLen() == 0 {
			st.isActive[ri] = false
			st.dead++
		}
	}
	st.idle = st.idle[:0]
	if st.dead > len(st.active)/2 {
		keep := st.active[:0]
		for i, ri := range st.active {
			if st.live(i, ri) {
				st.pos[ri] = int32(len(keep))
				keep = append(keep, ri) //lint:ignore hotalloc filter-in-place over st.active[:0]; never outgrows its capacity
			}
		}
		st.active = keep
		st.dead = 0
	}

	if nw.cycle%64 == 0 {
		nw.sampleMultiplexing()
	}
	nw.cycle++
}

// rotate copies list into the step scratch buffer in round-robin order:
// entries >= start first (ascending), then the wrapped prefix. The lists
// are maintained ascending, so this reproduces exactly the visit order of
// a full flattened scan starting at a rotating pointer.
func (nw *Network) rotate(list []int16, start int) []int16 {
	split := 0
	for _, idx := range list {
		if int(idx) < start {
			split++
		}
	}
	s := append(nw.step.scratch[:0], list[split:]...) //lint:ignore hotalloc round-robin snapshot reuses the retained step scratch buffer
	s = append(s, list[:split]...)                    //lint:ignore hotalloc round-robin snapshot reuses the retained step scratch buffer
	nw.step.scratch = s
	return s
}

// allocate assigns an output port and claims a downstream virtual channel
// for every input VC whose header flit is ready. Only the pending-header
// list is visited, rotated at rrAlloc and advanced past the last grant, so
// headers competing for the same scarce downstream virtual channel take
// turns exactly as under the full scan. Every pending header has arrived
// (a claimed VC parks until its header's moveIn), and a dimension-order
// header that finds its whole class held parks until a release.
func (nw *Network) allocate(r *router, cyc int64) {
	nVC := nw.nVC
	total := (nw.outputs + 1) * nVC
	lastGrant := -1
	// Iterate a snapshot: claims remove entries from r.pending mid-loop.
	for _, idx16 := range nw.rotate(r.pending, r.rrAlloc) {
		idx := int(idx16)
		in := &r.in[idx]
		msg := in.msg
		if in.routeCh == routeUnknown {
			in.routeCh = nw.route(msg, r.node)
			if int(in.routeCh) != nw.injPort && nw.wrappedAfter(msg, r.node, int(in.routeCh)) {
				in.wrapped = 1
			}
		}
		if int(in.routeCh) == nw.injPort { // arrived: mark for ejection
			in.outPort = in.routeCh
			r.pending = removeSorted(r.pending, idx16)
			r.ejectQ = insertSorted(r.ejectQ, idx16)
			nw.step.eject.add(int32(r.node))
			continue
		}
		claim := func(ch, dv int) { //lint:ignore hotalloc non-escaping grant helper, inlined into the allocation loop
			oc := &r.out[ch]
			down := oc.down
			dvc := &down.in[oc.base+dv]
			dvc.msg = msg
			dvc.outPort, dvc.outVC = noPort, noPort
			dvc.park, dvc.from = parkIn, idx16 // joins pending when the header arrives
			down.busyVCs++
			down.busyIn[ch]++
			nw.activate(int32(down.node))
			in.outPort, in.outVC = int8(ch), int8(dv)
			r.pending = removeSorted(r.pending, idx16)
			nw.listCand(oc, idx16)
			lastGrant = idx
		}
		ch := int(in.routeCh)
		if nw.cfg.Routing == RoutingAdaptive {
			// The escape VC index is the cached wrap state: VC 0 holds
			// escape class 1, VC 1 escape class 0.
			dv := int(in.wrapped)
			if !msg.Escaped {
				// Try an adaptive virtual channel on any productive
				// output, falling back to the escape network on the
				// dimension-order output.
				if ach, adv, ok := nw.adaptiveCandidate(msg, r.node); ok {
					claim(ach, adv)
					continue
				}
				if r.out[ch].down.in[r.out[ch].base+dv].msg == nil {
					msg.Escaped = true
					claim(ch, dv)
				} else {
					msg.Blocked++
				}
				continue
			}
			// Escaped message: only its escape-class virtual channel.
			if r.out[ch].down.in[r.out[ch].base+dv].msg == nil {
				claim(ch, dv)
			} else {
				msg.Blocked++
			}
			continue
		}
		// Deterministic routing: any free VC of the Dally-Seitz class for
		// this hop (class 1 in [0, V/2) before the wrap, class 0 after).
		oc := &r.out[ch]
		lo, hi := 0, nVC/2
		if in.wrapped == 1 {
			lo, hi = nVC/2, nVC
		}
		for dv := lo; dv < hi; dv++ {
			if oc.down.in[oc.base+dv].msg == nil {
				claim(ch, dv)
				break
			}
		}
		if in.outPort == noPort {
			// The whole class is held and only a release frees a VC of
			// it: park until then; release credits the cycles parked.
			msg.Blocked++
			in.park, in.parkedAt = parkClass, cyc
			r.pending = removeSorted(r.pending, idx16)
			oc.waiting[in.wrapped] = append(oc.waiting[in.wrapped], idx16) //lint:ignore hotalloc parked-header lists reuse capacity; len is bounded by VCs per router
		}
	}
	if lastGrant >= 0 {
		r.rrAlloc = (lastGrant + 1) % total
	}
}

// eject consumes flits that have reached their destination. Only VCs on
// the eject queue (output allocated to the ejection channel) are visited.
func (nw *Network) eject(r *router, cyc int64) {
	if nw.cfg.EjectionContention {
		// One ejection channel: a single flit per cycle, round-robin.
		total := (nw.outputs + 1) * nw.nVC
		for _, idx16 := range nw.rotate(r.ejectQ, r.rrEj) {
			in := &r.in[idx16]
			if in.avail(cyc) > 0 {
				nw.consume(r, int(idx16), in, cyc, 1)
				r.rrEj = (int(idx16) + 1) % total
				return
			}
		}
		return
	}
	// Contention-free ejection (assumption (iv)): drain everything that
	// arrived by the start of the cycle. Iterate a snapshot, since
	// consuming a tail removes the VC from the queue.
	for _, idx16 := range nw.rotate(r.ejectQ, 0) {
		in := &r.in[idx16]
		if n := in.avail(cyc); n > 0 {
			nw.consume(r, int(idx16), in, cyc, n)
		}
	}
}

// consume removes n buffered flits of the message holding in (the VC at
// flattened index idx), completing delivery when the tail is consumed.
func (nw *Network) consume(r *router, idx int, in *vc, cyc int64, n int32) {
	msg := in.msg
	for i := int32(0); i < n; i++ {
		in.moveOut(cyc)
	}
	if nw.cfg.CheckInvariants {
		nw.invariant(in.occ >= 0, "negative occupancy at node %d", r.node) //lint:ignore hotalloc debug-only: boxing happens inside the CheckInvariants guard
	}
	if in.sent == nw.msgLen {
		r.ejectQ = removeSorted(r.ejectQ, int16(idx))
		nw.release(r, idx, in, cyc)
		nw.deliver(msg, cyc)
	} else if in.feedParked {
		nw.wakeOut(r, in)
	}
}

// release frees r.in[idx] once its tail has left and wakes what waited for
// a free VC there: the headers upstream parked on its class, or for an
// injection VC the parked source queue. Each woken header is credited the
// Blocked cycles it would have counted had it been polled: one per cycle
// after the one it parked in, up to this one.
func (nw *Network) release(r *router, idx int, in *vc, cyc int64) {
	in.reset()
	r.busyVCs--
	if r.busyVCs == 0 && r.queueLen() == 0 {
		nw.step.idle = append(nw.step.idle, int32(r.node)) //lint:ignore hotalloc idle list reuses capacity; a router joins at most once per cycle
	}
	p := int(in.port)
	if p == nw.injPort {
		r.srcParked = false
		if r.queueLen() > 0 {
			nw.step.bind.add(int32(r.node))
		}
		return
	}
	r.busyIn[p]--
	c := 0
	if idx-p*nw.nVC >= nw.nVC/2 {
		c = 1
	}
	up := r.up[p]
	oc := &up.out[p]
	if len(oc.waiting[c]) == 0 {
		return
	}
	for _, h := range oc.waiting[c] {
		hv := &up.in[h]
		hv.park = parkNone
		hv.msg.Blocked += int32(cyc - hv.parkedAt)
		up.pending = insertSorted(up.pending, h)
	}
	oc.waiting[c] = oc.waiting[c][:0]
	nw.step.alloc.add(int32(up.node))
}

// wakeIn runs after a flit entered r.in[idx] while its entry was parked on
// the empty buffer (park == parkIn): the entry rejoins its list — an
// arriving header pending, a candidate its channel's list.
func (nw *Network) wakeIn(r *router, idx int, in *vc) {
	in.park = parkNone
	if in.outPort == noPort {
		r.pending = insertSorted(r.pending, int16(idx))
		nw.step.alloc.add(int32(r.node))
		return
	}
	nw.listCand(&r.out[in.outPort], int16(idx))
}

// wakeOut runs after flits (not the tail) left VC in of r while its feeder
// was parked on the full buffer (feedParked): the feeder — the PE for an
// injection VC, the upstream VC otherwise — is put back.
func (nw *Network) wakeOut(r *router, in *vc) {
	in.feedParked = false
	p := int(in.port)
	if p == nw.injPort {
		r.injLive++
		nw.step.inj.add(int32(r.node))
		return
	}
	up := r.up[p]
	up.in[in.from].park = parkNone
	nw.listCand(&up.out[p], in.from)
}

// listCand puts candidate idx on channel oc's list and the channel on the
// forwarding worklist.
func (nw *Network) listCand(oc *outChannel, idx int16) {
	oc.cand = insertSorted(oc.cand, idx)
	nw.step.fwd.add(int32(oc.id))
}

// ready returns candidate idx of channel oc and the downstream VC it feeds
// when a flit can cross this cycle. A candidate that cannot, and that only
// a later event can unblock, parks: an empty buffer until its own moveIn, a
// full downstream buffer until that buffer's moveOut. A buffer that
// changed earlier in this cycle is unblocked by the next one, so its
// candidate stays listed.
func (nw *Network) ready(oc *outChannel, idx int, cyc int64) (in, dvc *vc) {
	in = &nw.vcs[oc.in+idx]
	if in.avail(cyc) <= 0 {
		if in.occ == 0 {
			in.park = parkIn
			oc.cand = removeSorted(oc.cand, int16(idx))
		}
		return nil, nil
	}
	dvc = &nw.vcs[oc.dvc+int(in.outVC)]
	if dvc.space(cyc, nw.depth) <= 0 {
		if dvc.occ >= nw.depth {
			in.park = parkDown
			oc.cand = removeSorted(oc.cand, int16(idx))
			dvc.feedParked = true
		}
		return nil, nil
	}
	return in, dvc
}

// forward arbitrates output channel oc and moves at most one flit across
// it. Arbitration consults only the channel's candidate list; the common
// uncontended case (one message holding the channel) is a single
// eligibility check — the arbitration decision made at allocation time
// carries the whole message across, flit by flit, with no rescan.
func (nw *Network) forward(oc *outChannel, cyc int64) {
	var granted, dvc *vc
	var grantIdx int
	if len(oc.cand) == 1 {
		// Sole candidate: the rotated scan can only pick it.
		grantIdx = int(oc.cand[0])
		if granted, dvc = nw.ready(oc, grantIdx, cyc); granted == nil {
			return
		}
	} else {
		// Iterate a snapshot: parking removes entries from oc.cand.
		for _, idx16 := range nw.rotate(oc.cand, oc.rr) {
			if granted, dvc = nw.ready(oc, int(idx16), cyc); granted != nil {
				grantIdx = int(idx16)
				break
			}
		}
		if granted == nil {
			return
		}
	}
	if oc.rr = grantIdx + 1; oc.rr == (nw.injPort+1)*nw.nVC {
		oc.rr = 0
	}
	if nw.cfg.CheckInvariants {
		nw.invariant(dvc.msg == granted.msg, "downstream VC stolen on channel %d", oc.id) //lint:ignore hotalloc debug-only: boxing happens inside the CheckInvariants guard
	}
	granted.moveOut(cyc)
	dvc.moveIn(cyc)
	nw.chanFlits[oc.id]++
	msg := granted.msg
	if dvc.recvd == 1 { // header crossed this channel
		msg.Hops++
		if nw.cfg.RecordPaths {
			msg.Path = append(msg.Path, oc.down.node) //lint:ignore hotalloc debug-only: RecordPaths tracing
		}
	}
	if dvc.park == parkIn {
		nw.wakeIn(oc.down, oc.base+int(granted.outVC), dvc)
	}
	if granted.sent == nw.msgLen { // tail left: release this VC
		oc.cand = removeSorted(oc.cand, int16(grantIdx))
		nw.release(oc.src, grantIdx, granted, cyc)
	} else if granted.feedParked {
		nw.wakeOut(oc.src, granted)
	}
}

// inject moves at most one flit from the PE into a bound injection VC. A
// full VC parks the PE's feed (feedParked) until its own moveOut.
func (nw *Network) inject(r *router, cyc int64) {
	nVC := nw.nVC
	base := nw.injPort * nVC
	for off := 0; off < nVC; off++ {
		v := (r.rrInj + off) % nVC
		in := &r.in[base+v]
		if in.msg == nil || in.recvd >= nw.msgLen || in.feedParked {
			continue
		}
		if in.space(cyc, nw.depth) <= 0 {
			if in.occ >= nw.depth {
				in.feedParked = true
				r.injLive--
			}
			continue
		}
		in.moveIn(cyc)
		if in.recvd == nw.msgLen {
			r.injLive--
		}
		if in.park == parkIn {
			nw.wakeIn(r, base+v, in)
		}
		r.rrInj = (v + 1) % nVC
		return
	}
}

// generate creates the messages scheduled at or before cyc for router r.
func (nw *Network) generate(r *router, cyc int64) {
	for r.nextGen <= cyc {
		dst := nw.pattern.Destination(r.node, nw.rng)
		nw.invariant(dst != r.node, "pattern returned source %d", r.node) //lint:ignore hotalloc per generated message, dwarfed by the Message allocation below
		msg := &Message{                                                  //lint:ignore hotalloc one Message per injected packet, alive until delivery; per-message, not per-cycle
			ID:           nw.nextID,
			Src:          r.node,
			Dst:          dst,
			Len:          nw.msgLen,
			GenCycle:     r.nextGen,
			DeliverCycle: -1,
			Measured:     r.nextGen >= nw.measureFrom && nw.measuring,
		}
		if hc, ok := nw.pattern.(hotClassifier); ok {
			msg.Hot = hc.IsHot(dst)
		}
		if nw.cfg.RecordPaths {
			msg.Path = append(msg.Path, r.node) //lint:ignore hotalloc debug-only: RecordPaths tracing
		}
		nw.nextID++
		nw.injected++
		r.srcQ = append(r.srcQ, msg) //lint:ignore hotalloc source queue append per generated message; drained and resliced by the injector
		if nw.coll != nil {
			nw.coll.MessageInjected(r.queueLen())
		}
		r.nextGen += int64(r.arr.Next(nw.rng))
	}
}

// hotClassifier is implemented by traffic patterns that can identify
// hot-spot destinations (traffic.HotSpot).
type hotClassifier interface {
	IsHot(topology.NodeID) bool
}

// bind attaches queued messages to free injection virtual channels.
func (nw *Network) bind(r *router, cyc int64) {
	base := nw.injPort * nw.nVC
	for r.queueLen() > 0 {
		free := -1
		for v := 0; v < nw.nVC; v++ {
			if r.in[base+v].msg == nil {
				free = v
				break
			}
		}
		if free < 0 {
			r.srcParked = true // until an injection VC is released
			return
		}
		msg := r.popQueue()
		in := &r.in[base+free]
		in.reset()
		in.msg = msg
		in.park = parkIn // joins pending when the PE injects the header
		r.busyVCs++
		r.injLive++
		nw.step.inj.add(int32(r.node))
		msg.InjectCycle = cyc
	}
}

// deliver finalises a message and records statistics. Messages measured by
// an earlier Run on the same network (their generation predates the
// current measurement window) are excluded, so reuse cannot leak samples
// across runs.
func (nw *Network) deliver(msg *Message, cyc int64) {
	msg.DeliverCycle = cyc
	nw.delivered++
	if nw.delivCb != nil {
		nw.delivCb(msg)
	}
	if nw.coll != nil {
		nw.coll.MessageDelivered(msg.Latency(), int64(msg.Blocked), msg.SourceWait())
		if nw.draining {
			nw.coll.MessageDrained()
		}
	}
	if !msg.Measured || msg.GenCycle < nw.measureFrom {
		return
	}
	nw.measured++
	lat := float64(msg.Latency())
	nw.latAll.Add(lat)
	nw.latHist.Add(lat)
	nw.batch.Add(lat)
	nw.netAll.Add(float64(msg.DeliverCycle - msg.InjectCycle))
	nw.waitSrc.Add(float64(msg.SourceWait()))
	nw.hopsTotal += int64(msg.Hops)
	if msg.Hot {
		nw.latHot.Add(lat)
	} else {
		nw.latReg.Add(lat)
	}
}

// sampleMultiplexing samples the number of busy virtual channels on busy
// physical channels to estimate the empirical multiplexing degree. Every
// router holding a VC is on the active list, and per-port busy counts are
// maintained incrementally, so the sample costs one counter read per
// network port per busy router.
func (nw *Network) sampleMultiplexing() {
	for i, ri := range nw.step.active {
		r := &nw.routers[ri]
		if !nw.step.live(i, ri) || r.busyVCs == 0 {
			continue
		}
		for d := 0; d < nw.outputs; d++ {
			if busy := int64(r.busyIn[d]); busy > 0 {
				nw.busyChanSamples++
				nw.busyVCCt += busy
				if nw.coll != nil {
					nw.coll.VCOccupancy(int(busy))
				}
			}
		}
	}
}
