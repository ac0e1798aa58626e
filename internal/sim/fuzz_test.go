package sim

// Randomised configuration sweep: across arbitrary legal configurations the
// simulator must conserve messages (everything injected eventually drains)
// and respect its structural invariants. This is the broad net behind the
// targeted deadlock tests.

import (
	"math/rand"
	"testing"

	"kncube/internal/topology"
	"kncube/internal/traffic"
)

func TestRandomConfigurationsConserveMessages(t *testing.T) {
	rng := rand.New(rand.NewSource(20260704))
	trials := 25
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		k := 2 + rng.Intn(5)     // 2..6
		dims := 1 + rng.Intn(3)  // 1..3
		vcs := 2 + rng.Intn(3)   // 2..4
		depth := 1 + rng.Intn(3) // 1..3
		lm := 1 + rng.Intn(12)   // 1..12
		bi := rng.Intn(2) == 1
		eject := rng.Intn(2) == 1
		lambda := 0.001 + rng.Float64()*0.02

		cube := topology.MustNew(k, dims)
		var pattern traffic.Pattern
		switch rng.Intn(3) {
		case 0:
			pattern = traffic.Uniform{Cube: cube}
		case 1:
			hs, err := traffic.NewHotSpot(cube, topology.NodeID(rng.Intn(cube.Nodes())), rng.Float64())
			if err != nil {
				t.Fatal(err)
			}
			pattern = hs
		default:
			pattern = traffic.BitReversal{Cube: cube}
		}

		cfg := Config{
			K: k, Dims: dims, VCs: vcs, BufDepth: depth, MsgLen: lm,
			Lambda: lambda, Pattern: pattern, Seed: rng.Int63(),
			Bidirectional: bi, EjectionContention: eject,
			CheckInvariants: true,
		}
		nw, err := New(cfg)
		if err != nil {
			t.Fatalf("trial %d: %v (cfg %+v)", trial, err, cfg)
		}
		for i := 0; i < 6000; i++ {
			nw.Step()
			if i%500 == 0 {
				checkSchedulingInvariants(t, nw)
			}
		}
		checkSchedulingInvariants(t, nw)
		if !nw.Drain(400000) {
			t.Fatalf("trial %d: %d messages stuck (k=%d dims=%d vcs=%d depth=%d lm=%d bi=%v eject=%v lambda=%v)",
				trial, nw.Backlog(), k, dims, vcs, depth, lm, bi, eject, lambda)
		}
		if nw.Injected() != nw.Delivered() {
			t.Fatalf("trial %d: injected %d != delivered %d", trial, nw.Injected(), nw.Delivered())
		}
	}
}

func TestRandomConfigurationsDeliverCorrectPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		k := 3 + rng.Intn(4)
		dims := 1 + rng.Intn(2)
		bi := rng.Intn(2) == 1
		cube := topology.MustNew(k, dims)
		nw, err := New(Config{
			K: k, Dims: dims, VCs: 2, MsgLen: 4, Lambda: 0.01,
			Seed: rng.Int63(), Bidirectional: bi, RecordPaths: true,
			CheckInvariants: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		bad := 0
		nw.OnDeliver(func(m *Message) {
			var want []topology.NodeID
			if bi {
				want = cube.BiPath(m.Src, m.Dst)
			} else {
				want = cube.Path(m.Src, m.Dst)
			}
			if len(m.Path) != len(want) {
				bad++
				return
			}
			for i := range want {
				if m.Path[i] != want[i] {
					bad++
					return
				}
			}
		})
		for i := 0; i < 8000; i++ {
			nw.Step()
		}
		if nw.Delivered() == 0 {
			t.Fatalf("trial %d: nothing delivered", trial)
		}
		if bad > 0 {
			t.Fatalf("trial %d: %d messages took the wrong path (bi=%v)", trial, bad, bi)
		}
	}
}

// contains16 reports membership of x in the (short) sorted list s.
func contains16(s []int16, x int16) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}

// checkSchedulingInvariants cross-checks the event-driven hot loop's
// incrementally-maintained scheduling state against a ground-truth scan of
// every virtual channel. The load-bearing property is reachability: every
// held VC must be reachable from exactly one of pending, the parked
// headers, its channel's candidates, the parked candidates or the eject
// queue — a buffered eligible flit that is on no list would silently never
// move again. The second property is that parking loses no work: every
// parked entry must be genuinely ineligible at the start of the cycle, so
// that only its wake event can unblock it. Only networks advanced by the
// production Step satisfy these (the scan-based reference step leaves the
// lists empty by design).
func checkSchedulingInvariants(t *testing.T, nw *Network) {
	t.Helper()
	for ri := range nw.routers {
		r := &nw.routers[ri]
		// listed[idx] counts the lists VC idx is on.
		listed := make([]int, len(r.in))
		for _, list := range [][]int16{r.pending, r.ejectQ} {
			for i, idx := range list {
				if i > 0 && list[i-1] >= idx {
					t.Fatalf("node %d: scheduling list not strictly ascending: %v", r.node, list)
				}
				listed[idx]++
			}
		}
		for ch := range r.out {
			oc := &r.out[ch]
			cand := oc.cand
			if st := &nw.step; st.inited && len(cand) > 0 && !st.fwd.on[oc.id] {
				t.Fatalf("node %d ch %d: channel has candidates but is off the forwarding worklist", r.node, ch)
			}
			for i, idx := range cand {
				if i > 0 && cand[i-1] >= idx {
					t.Fatalf("node %d ch %d: candidate list not strictly ascending: %v", r.node, ch, cand)
				}
				listed[idx]++
				in := &r.in[idx]
				if in.msg == nil || int(in.outPort) != ch {
					t.Fatalf("node %d ch %d: candidate %d holds no message routed here (outPort %d)",
						r.node, ch, idx, in.outPort)
				}
			}
			for c, list := range oc.waiting {
				for _, idx := range list {
					listed[idx]++
					in := &r.in[idx]
					if in.msg == nil || in.outPort != noPort || in.park != parkClass ||
						int(in.routeCh) != ch || int(in.wrapped) != c {
						t.Fatalf("node %d ch %d: parked header %d of class list %d is not a header parked on it",
							r.node, ch, idx, c)
					}
				}
			}
		}
		// Router worklists: every router with an unparked entry for a
		// phase is on that phase's list, and the bind list is empty
		// between cycles because a source queue either binds or parks.
		if st := &nw.step; st.inited {
			for _, w := range []struct {
				name string
				work bool
				list *workList
			}{
				{"allocation", len(r.pending) > 0, &st.alloc},
				{"ejection", len(r.ejectQ) > 0, &st.eject},
				{"injection", r.injLive > 0, &st.inj},
			} {
				if w.work && !w.list.on[ri] {
					t.Fatalf("node %d: has %s work but is off the %s worklist", r.node, w.name, w.name)
				}
			}
			if len(st.bind.ids) > 0 || st.bind.on[ri] {
				t.Fatalf("node %d: bind worklist not empty between cycles", r.node)
			}
			if r.queueLen() > 0 && !r.srcParked {
				t.Fatalf("node %d: %d queued messages neither bound nor parked", r.node, r.queueLen())
			}
			if st.isActive[ri] && st.active[st.pos[ri]] != int32(ri) {
				t.Fatalf("node %d: active-list position %d is stale", r.node, st.pos[ri])
			}
		}
		busy, injLive, freeInj := 0, 0, 0
		busyIn := make([]int32, nw.outputs)
		for idx := range r.in {
			in := &r.in[idx]
			p := idx / nw.nVC
			if in.msg == nil {
				if listed[idx] > 0 || in.park != parkNone || in.feedParked {
					t.Fatalf("node %d: free VC %d listed or parked", r.node, idx)
				}
				if p == nw.injPort {
					freeInj++
				}
				continue
			}
			busy++
			if p < nw.injPort {
				busyIn[p]++
			} else if in.recvd < nw.msgLen && !in.feedParked {
				injLive++
			}
			if int(in.port) != p {
				t.Fatalf("node %d: VC %d records port %d, want %d", r.node, idx, in.port, p)
			}
			if in.feedParked && p == nw.injPort && (in.occ < nw.depth || in.recvd >= nw.msgLen) {
				t.Fatalf("node %d: injection VC %d parks its PE but is not full", r.node, idx)
			}
			if in.feedParked && p < nw.injPort {
				if f := &r.up[p].in[in.from]; f.msg != in.msg || f.park != parkDown ||
					int(f.outPort) != p || int(f.outVC) != idx-p*nw.nVC {
					t.Fatalf("node %d: VC %d marks its feeder parked but the feeder is not parked on it", r.node, idx)
				}
			}
			// Reachability: exactly one place — a list, or a per-VC park
			// that a moveIn or moveOut undoes.
			places := listed[idx]
			if in.park == parkIn || in.park == parkDown {
				places++
			}
			if places != 1 {
				t.Fatalf("node %d: held VC %d reachable from %d places (park %d)", r.node, idx, places, in.park)
			}
			switch {
			case in.outPort == noPort:
				switch in.park {
				case parkNone:
					if !contains16(r.pending, int16(idx)) || in.occ == 0 {
						t.Fatalf("node %d: header in VC %d neither arrived on pending nor parked", r.node, idx)
					}
				case parkIn:
					if in.occ != 0 {
						t.Fatalf("node %d: header in VC %d parked for its arrival but buffered", r.node, idx)
					}
				case parkClass:
					oc := &r.out[in.routeCh]
					if nw.cfg.Routing == RoutingAdaptive || !contains16(oc.waiting[in.wrapped], int16(idx)) {
						t.Fatalf("node %d: VC %d parked on its class but not on its class list", r.node, idx)
					}
					lo, hi := 0, nw.nVC/2
					if in.wrapped == 1 {
						lo, hi = nw.nVC/2, nw.nVC
					}
					for dv := lo; dv < hi; dv++ {
						if oc.down.in[oc.base+dv].msg == nil {
							t.Fatalf("node %d: header in VC %d parked while VC %d of its class is free", r.node, idx, dv)
						}
					}
				default:
					t.Fatalf("node %d: header in VC %d has park state %d", r.node, idx, in.park)
				}
			case int(in.outPort) == nw.injPort:
				if in.park != parkNone || !contains16(r.ejectQ, int16(idx)) {
					t.Fatalf("node %d: ejecting VC %d missing from eject queue", r.node, idx)
				}
			default:
				oc := &r.out[in.outPort]
				dvc := &oc.down.in[oc.base+int(in.outVC)]
				if dvc.msg != in.msg || int(dvc.from) != idx {
					t.Fatalf("node %d: VC %d and its downstream VC disagree on their link", r.node, idx)
				}
				switch in.park {
				case parkNone:
					if !contains16(oc.cand, int16(idx)) {
						t.Fatalf("node %d: VC %d routed to channel %d unreachable by its arbitration scan",
							r.node, idx, in.outPort)
					}
				case parkIn:
					if in.occ != 0 {
						t.Fatalf("node %d: candidate %d parked for a flit but buffered", r.node, idx)
					}
				case parkDown:
					if dvc.occ < nw.depth || !dvc.feedParked {
						t.Fatalf("node %d: candidate %d parked on a downstream buffer with space or unmarked", r.node, idx)
					}
				default:
					t.Fatalf("node %d: candidate %d has park state %d", r.node, idx, in.park)
				}
			}
		}
		if busy != r.busyVCs {
			t.Fatalf("node %d: busyVCs %d but %d VCs held", r.node, r.busyVCs, busy)
		}
		if injLive != r.injLive {
			t.Fatalf("node %d: injLive %d but %d injection VCs receiving", r.node, r.injLive, injLive)
		}
		if r.srcParked && (freeInj > 0 || r.queueLen() == 0) {
			t.Fatalf("node %d: source queue parked with %d free injection VCs and %d queued",
				r.node, freeInj, r.queueLen())
		}
		for p := 0; p < nw.outputs; p++ {
			if busyIn[p] != r.busyIn[p] {
				t.Fatalf("node %d port %d: busyIn %d but %d held VCs", r.node, p, r.busyIn[p], busyIn[p])
			}
		}
		if (busy > 0 || r.queueLen() > 0) && nw.step.inited && !nw.step.isActive[ri] {
			t.Fatalf("node %d holds work but is not on the active list", r.node)
		}
	}
}

// FuzzSchedulingInvariants drives random configurations through the
// production Step and checks the candidate-list/scheduling invariants as
// the network evolves, then requires a full drain (no stranded flits).
// load selects λ = 0.01·(1 + load%8); the loads above 0.02 saturate most
// shapes, which is where parked entries pile up. The run offers about 25
// messages per node at any load, so the backlog left to drain, and with it
// the time one input takes, stays bounded.
func FuzzSchedulingInvariants(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(2), uint8(2), uint8(8), false, false, uint8(0), uint8(0))
	f.Add(int64(99), uint8(5), uint8(1), uint8(4), uint8(3), true, true, uint8(1), uint8(0))
	f.Add(int64(7), uint8(3), uint8(3), uint8(3), uint8(12), true, false, uint8(2), uint8(0))
	f.Add(int64(5), uint8(2), uint8(1), uint8(0), uint8(7), false, false, uint8(1), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, k, dims, vcs, lm uint8, bi, adaptive bool, patSel, load uint8) {
		cfgK := 2 + int(k)%5
		cfgDims := 1 + int(dims)%3
		cfgVCs := 2 + int(vcs)%3
		cfgLen := 1 + int(lm)%12
		routing := RoutingDimensionOrder
		if adaptive {
			routing = RoutingAdaptive
			if cfgVCs < 3 {
				cfgVCs = 3
			}
		}
		cube := topology.MustNew(cfgK, cfgDims)
		var pattern traffic.Pattern
		switch patSel % 3 {
		case 0:
			pattern = traffic.Uniform{Cube: cube}
		case 1:
			hotIdx := int((seed >> 3) % int64(cube.Nodes()))
			if hotIdx < 0 {
				hotIdx += cube.Nodes()
			}
			hs, err := traffic.NewHotSpot(cube, topology.NodeID(hotIdx), 0.3)
			if err != nil {
				t.Fatal(err)
			}
			pattern = hs
		default:
			pattern = traffic.Transpose{Cube: cube}
		}
		m := 1 + int(load%8)
		nw, err := New(Config{
			K: cfgK, Dims: cfgDims, VCs: cfgVCs, BufDepth: 1 + int(lm)%3,
			MsgLen: cfgLen, Lambda: 0.01 * float64(m), Pattern: pattern, Seed: seed,
			Bidirectional: bi, Routing: routing,
			EjectionContention: patSel%2 == 1, CheckInvariants: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2500/m; i++ {
			nw.Step()
			if i%64 == 0 {
				checkSchedulingInvariants(t, nw)
			}
		}
		checkSchedulingInvariants(t, nw)
		if !nw.Drain(200000) {
			t.Fatalf("%d messages stranded", nw.Backlog())
		}
	})
}
