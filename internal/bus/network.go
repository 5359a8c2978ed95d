package bus

import "github.com/wisc-arch/datascalar/internal/obs"

// Arrival is one message landing at one node. Broadcast messages produce
// one arrival per receiving node; on a bus they all land in the same
// cycle, on a ring they land hop by hop.
type Arrival struct {
	Node int
	Msg  Message
}

// Network abstracts the global interconnect so machines can run over
// any of the four topologies (TopologyKind): a bus, a unidirectional
// ring, a 2D mesh or a 2D torus. The paper discusses the first two —
// buses make broadcasts free, rings offer higher performance with every
// node observing passing messages — and the mesh and torus carry the
// same link model to hundreds of nodes.
type Network interface {
	// Enqueue submits a message from its source chip.
	Enqueue(m Message)
	// Tick advances to CPU cycle now (strictly increasing) and returns
	// the arrivals completing this cycle.
	Tick(now uint64) []Arrival
	// Pending returns the number of undelivered messages.
	Pending() int
	// SourcePending returns the number of undelivered messages node src
	// currently has on the interconnect (diagnostics; never affects
	// timing).
	SourcePending(src int) int
	// PurgeSource drops every message node src has submitted but not yet
	// begun transferring, returning the count. The fault layer calls it
	// at permanent node death: the dead chip's unsent traffic dies with
	// it, while transfers already on the wire complete.
	PurgeSource(src int) int
	// NextDeliveryCycle returns the earliest future cycle at which Tick
	// could deliver a message or otherwise change interconnect state
	// (NoEvent when empty). Every Tick at a cycle strictly before the
	// returned value is guaranteed to be a no-op, which is what lets the
	// machine scheduler skip idle cycles without altering timing. Call
	// only after Tick(now) has run for the current cycle.
	NextDeliveryCycle(now uint64) uint64
	// NetStats returns the shared traffic counters.
	NetStats() *Stats
	// SetObserver attaches an observability sink for transfer-grant
	// events (nil detaches; observation never affects timing).
	SetObserver(o obs.Observer)
	// DataPhase reports where the data-bearing message that would satisfy
	// a load of addr at node dst currently sits (PhaseAbsent when no such
	// message is on the interconnect). Purely observational — stall
	// attribution uses it to split waits into producer-side latency,
	// interconnect contention, and wire serialization. Call only after
	// Tick(now) has run for the current cycle; the result is stable across
	// any stretch of cycles NextDeliveryCycle certifies as no-ops, which
	// is what keeps attribution identical under cycle skipping.
	DataPhase(addr uint64, dst int, now uint64) MsgPhase
	// Lookahead returns the minimum wire occupancy of any message: a
	// lower bound, in cycles, on the time between a message becoming
	// eligible to move (its ReadyAt) and the earliest cycle its presence
	// can change any delivery the network makes — its own first delivery
	// takes at least one full transfer, and any older message it displaces
	// is pushed behind that same occupancy. This is the conservative
	// lookahead that makes parallel intra-run simulation sound: deliveries
	// before ReadyAt+Lookahead() are independent of the message entirely.
	// Always at least 1.
	Lookahead() uint64
	// NewScratch returns a fresh, observer-free network of identical
	// shape and configuration, for use as a prediction scratchpad: load it
	// with CopyStateFrom, then Tick it ahead of the real network to learn
	// future deliveries without disturbing real state, stats, or
	// observers.
	NewScratch() Network
	// CopyStateFrom overwrites this network's in-flight message state
	// with src's (which must be the same concrete type and shape).
	// Statistics and observers are deliberately not copied — the copy
	// exists to predict deliveries, not to account for them. Internal
	// storage is reused, so repeated copies are allocation-free in steady
	// state.
	CopyStateFrom(src Network)
}

// MsgPhase classifies the progress of a pending data message for stall
// attribution. The set is closed: dsvet requires every switch over
// MsgPhase to cover all phases or panic in its default.
//
//dsvet:enum
type MsgPhase uint8

const (
	// PhaseAbsent: no matching message is on the interconnect — the
	// producer has not pushed (or even been asked for) the data yet.
	PhaseAbsent MsgPhase = iota
	// PhaseQueued: the message is submitted but its own network-interface
	// or broadcast-queue penalty is the binding constraint.
	PhaseQueued
	// PhaseBlocked: the message is eligible to move but waits behind
	// other traffic (bus arbitration, a busy ring link, or deeper in its
	// source queue).
	PhaseBlocked
	// PhaseTransfer: the message occupies the wire right now.
	PhaseTransfer
)

// dataMatch reports whether m is a data-bearing message that will
// satisfy a load of addr at node dst: an ESP broadcast from another
// node, a point-to-point response to dst, or dst's own outstanding bare
// read request (the request leg of a traditional miss; payload-carrying
// requests are writebacks nobody waits on). Resilience-layer control
// traffic is excluded — retry waits are classified from BSHR state
// before the interconnect is consulted.
func dataMatch(m Message, addr uint64, dst int) bool {
	if m.Ctl != CtlNone || m.Addr != addr {
		return false
	}
	switch m.Kind {
	case Broadcast:
		return m.Src != dst
	case Response:
		return m.Dst == dst
	case Request:
		return m.PayloadBytes == 0 && m.Src == dst
	}
	return false
}

// DataPhase implements Network for the bus. The queued-versus-blocked
// split uses the binding constraint rather than the current cycle where
// possible (ReadyAt versus the in-flight transfer's completion), so the
// answer cannot flip inside a skipped stretch.
//
// DataPhase runs on every stall-classification query; it is
// allocation-free (see the zero-alloc guard in dataphase_test.go).
//
//dsvet:hotpath
func (b *Bus) DataPhase(addr uint64, dst int, now uint64) MsgPhase {
	if b.busy && dataMatch(b.current, addr, dst) {
		return PhaseTransfer
	}
	best := PhaseAbsent
	for _, q := range b.queues {
		for i, m := range q {
			if !dataMatch(m, addr, dst) {
				continue
			}
			p := PhaseBlocked
			if i == 0 {
				// Head of its source queue: its own ReadyAt penalty binds
				// when it outlasts whatever currently occupies the bus.
				horizon := now
				if b.busy && b.doneAt > horizon {
					horizon = b.doneAt
				}
				if m.ReadyAt > horizon {
					p = PhaseQueued
				}
			}
			if p > best {
				best = p
			}
		}
	}
	return best
}

// numNodes returns the node count the bus was built for.
func (b *Bus) numNodes() int { return len(b.queues) }

// NetStats implements Network.
func (b *Bus) NetStats() *Stats { return &b.stats }

// TickArrivals implements the Network Tick contract for the bus: a
// completing broadcast arrives at every node but the sender in the same
// cycle (every bus transaction is an implicit broadcast); point-to-point
// messages arrive at their destination. The returned slice is only valid
// until the next call.
func (b *Bus) TickArrivals(now uint64) []Arrival {
	msg, ok := b.Tick(now)
	if !ok {
		return nil
	}
	out := b.arrivals[:0]
	if msg.Kind == Broadcast {
		for n := 0; n < b.numNodes(); n++ {
			if n != msg.Src {
				out = append(out, Arrival{Node: n, Msg: msg})
			}
		}
	} else {
		out = append(out, Arrival{Node: msg.Dst, Msg: msg})
	}
	b.arrivals = out
	return out
}

// Lookahead implements Network. The cheapest message a bus can carry is
// header-only, and even that occupies the wire for its full transfer
// time before delivering — so no newly enqueued message can affect any
// delivery sooner than one header transfer after it becomes eligible.
// Older queued traffic is never displaced earlier by a new arrival
// (source queues are FIFO and arbitration is round-robin), so this bound
// covers perturbation as well as first delivery.
func (b *Bus) Lookahead() uint64 {
	la := b.cfg.TransferCycles(HeaderBytes)
	if la < 1 {
		la = 1
	}
	return la
}

// CopyStateFrom implements Network for the bus: replicate queues and the
// in-flight transfer, reusing queue storage. Stats and observer stay
// untouched.
func (b *Bus) CopyStateFrom(src Network) {
	s := src.(busNetwork).Bus
	for i := range b.queues {
		b.queues[i] = append(b.queues[i][:0], s.queues[i]...)
	}
	b.rrNext = s.rrNext
	b.busy = s.busy
	b.doneAt = s.doneAt
	b.current = s.current
}

// busNetwork adapts Bus to the Network interface.
type busNetwork struct{ *Bus }

// NewNetwork builds a bus-backed Network.
func NewNetwork(cfg Config, numNodes int) Network {
	return busNetwork{New(cfg, numNodes)}
}

// Tick implements Network.
func (b busNetwork) Tick(now uint64) []Arrival { return b.TickArrivals(now) }

// NewScratch implements Network.
func (b busNetwork) NewScratch() Network { return busNetwork{New(b.cfg, len(b.queues))} }
