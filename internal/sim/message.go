package sim

import "kncube/internal/topology"

// Message is one wormhole message: MsgLen flits that snake through the
// network behind a header flit.
type Message struct {
	ID  int64
	Src topology.NodeID
	Dst topology.NodeID
	// Hot records whether the destination was chosen as the hot-spot node
	// by the traffic pattern (false for uniform patterns).
	Hot bool
	// Len is the message length in flits.
	Len int32

	// GenCycle is when the source PE generated the message (entered the
	// infinite source queue).
	GenCycle int64
	// InjectCycle is when the message acquired an injection virtual
	// channel (left the source queue head).
	InjectCycle int64
	// DeliverCycle is when the tail flit was consumed by the destination
	// PE; -1 while in flight.
	DeliverCycle int64

	// Hops is the number of network channels the header crossed.
	Hops int32
	// Blocked counts the cycles the header flit was buffered and ready but
	// failed to claim a downstream virtual channel (the blocking the
	// analytical model prices into the mean waiting time).
	Blocked int32
	// Path, when Config.RecordPaths is set, lists the routers visited.
	Path []topology.NodeID
	// Measured marks messages generated after warm-up.
	Measured bool
	// Escaped marks a message that entered the dimension-order escape
	// network under adaptive routing; it stays there until delivery.
	Escaped bool
}

// Latency returns the end-to-end latency (generation to tail delivery) in
// cycles; call only after delivery.
func (m *Message) Latency() int64 { return m.DeliverCycle - m.GenCycle }

// SourceWait returns the time spent in the source queue before acquiring an
// injection virtual channel.
func (m *Message) SourceWait() int64 { return m.InjectCycle - m.GenCycle }

// vc is one input virtual channel: a flit FIFO plus the wormhole state of
// the message currently holding it. Because flits of a single message pass
// through a virtual channel in order and a virtual channel is held by one
// message at a time, the buffer is represented by counters rather than a
// queue of flit objects.
type vc struct {
	msg *Message // holder; nil = free

	occ   int32 // flits currently buffered
	recvd int32 // flits received into this VC for msg (injection: from PE)
	sent  int32 // flits forwarded out of this VC (or consumed by ejection)

	// outPort is the allocated output for msg: a dimension index, the
	// ejection marker, or -1 before route/VC allocation.
	outPort int8
	// outVC is the downstream virtual-channel index claimed for msg.
	outVC int8

	// routeCh caches the deterministic routing decision for msg at this
	// VC's router (the dimension-order output channel, or the ejection
	// marker), and wrapped caches whether taking routeCh crosses the
	// ring's wrap-around link (which selects the Dally-Seitz class and
	// the escape VC). Both depend only on (msg, router), so a header
	// that stays blocked for many cycles pays the coordinate arithmetic
	// once instead of every retry. routeUnknown = not yet computed.
	routeCh int8
	wrapped int8

	// port is the input port this VC belongs to (fixed at construction).
	port int8

	// park says why this VC's scheduling entry (its pending header or
	// channel candidate) is off its list, and so which event puts it
	// back: parkIn waits for its own moveIn (buffer empty), parkDown for
	// the moveOut of its downstream VC (that buffer full), parkClass for
	// the release of a VC of its header's Dally-Seitz class. parkedAt is
	// the cycle a parkClass header parked, so that Blocked can be
	// credited with the cycles it spent parked.
	park     int8
	parkedAt int64

	// feedParked marks that this VC's one feeder — the upstream VC from
	// (network ports; valid while msg is held) or, for an injection VC,
	// the PE — is parked until this VC's next moveOut frees a slot.
	feedParked bool
	from       int16

	// in/out count flits that entered/left during cycle; touch() lazily
	// resets them at each new cycle so that conservative eligibility can be
	// computed without a global per-cycle sweep:
	//   avail = occ - in   (flits present since the cycle started)
	//   space = depth - occ - out (slots free since the cycle started)
	cycle int64
	in    int32
	out   int32
}

const (
	noPort       = int8(-1)
	routeUnknown = int8(-1)
)

// Values of vc.park.
const (
	parkNone = int8(iota)
	parkIn
	parkDown
	parkClass
)

func (v *vc) reset() {
	v.msg = nil
	v.occ, v.recvd, v.sent = 0, 0, 0
	v.outPort, v.outVC = noPort, noPort
	v.routeCh, v.wrapped = routeUnknown, 0
	v.park, v.feedParked = parkNone, false
}

func (v *vc) touch(cycle int64) {
	if v.cycle != cycle {
		v.cycle, v.in, v.out = cycle, 0, 0
	}
}

// avail returns the number of flits eligible to leave this cycle.
func (v *vc) avail(cycle int64) int32 {
	v.touch(cycle)
	return v.occ - v.in
}

// space returns the number of flits that may still be accepted this cycle
// under conservative (start-of-cycle) credit accounting.
func (v *vc) space(cycle int64, depth int32) int32 {
	v.touch(cycle)
	return depth - v.occ - v.out
}

// headerReady reports whether the header flit is buffered and not yet
// allocated an output.
func (v *vc) headerReady(cycle int64) bool {
	return v.msg != nil && v.outPort == noPort && v.sent == 0 && v.avail(cycle) > 0
}

func (v *vc) moveIn(cycle int64) {
	v.touch(cycle)
	v.occ++
	v.in++
	v.recvd++
}

func (v *vc) moveOut(cycle int64) {
	v.touch(cycle)
	v.occ--
	v.out++
	v.sent++
}
