package bus

import (
	"fmt"

	"github.com/wisc-arch/datascalar/internal/obs"
)

// LinkConfig describes one point-to-point link of a multi-hop
// interconnect — the unidirectional ring the paper envisions for
// high-performance DataScalar systems ("on a ring, operations are
// observed by all nodes if the sender is responsible for removing its
// own message" — the IEEE/ANSI SCI style), and the 2D mesh and torus
// that extend the same link model to hundreds of nodes.
type LinkConfig struct {
	// WidthBytes is each link's datapath width.
	WidthBytes int
	// ClockDivisor is CPU cycles per link cycle.
	ClockDivisor uint64
	// HopCycles is the per-node forwarding latency added at each hop.
	HopCycles uint64
}

// DefaultLinkConfig returns links matching the default bus width at the
// same clock with a one-cycle hop latency.
func DefaultLinkConfig() LinkConfig {
	return LinkConfig{WidthBytes: 8, ClockDivisor: 2, HopCycles: 1}
}

// Validate checks structural soundness.
func (c LinkConfig) Validate() error {
	if c.WidthBytes <= 0 {
		return fmt.Errorf("link: width must be positive")
	}
	if c.ClockDivisor == 0 {
		return fmt.Errorf("link: clock divisor must be positive")
	}
	return nil
}

// transferCycles is the link occupancy for one message.
func (c LinkConfig) transferCycles(wireBytes int) uint64 {
	beats := (wireBytes + c.WidthBytes - 1) / c.WidthBytes
	if beats == 0 {
		beats = 1
	}
	return uint64(beats)*c.ClockDivisor + c.HopCycles
}

// Link directions. Every node owns four directed outgoing links,
// indexed node*4+dir; a mesh edge node simply never uses the links that
// would leave the grid, a torus wraps them around, and a ring uses only
// its +Y link.
const (
	dirXPlus = iota
	dirXMinus
	dirYPlus
	dirYMinus
	numDirs
)

// linkMsg is the per-message header shared by all of a message's tree
// branches: the payload, the liveness refcount, the column spans the
// dimension-order broadcast tree spawns at every row node (all spawning
// nodes sit in the source's row, so the spans are fixed at enqueue), and
// the summary DataPhase reads instead of walking the branches.
type linkMsg struct {
	msg Message
	// branches counts live branches; the message leaves the network when
	// it reaches zero.
	branches int
	// hopping counts branches with a hop in progress (inFlight); any
	// makes the whole message PhaseTransfer.
	hopping int
	// injected marks that some branch has started its first hop (for the
	// one-shot bus.grant observation and for PurgeSource, which drops
	// only messages that have not touched the wire).
	injected bool
	// srcDirs has bit d set for each branch the message starts with.
	// Until injected, those are exactly its branches, all sitting at
	// msg.Src with readyAt == msg.ReadyAt, so the source links
	// msg.Src*numDirs+d decide queued versus blocked.
	srcDirs uint8
	// colPlus/colMinus are the +Y/-Y spans of the column branches a
	// broadcast spawns at each row node (zero for point-to-point).
	colPlus, colMinus int
	// slot is the header's index in LinkNet.live and LinkNet.liveAddr.
	slot int32
}

// linkBranch is one branch of a message's route: a point-to-point
// message is a single branch, a broadcast is a dimension-order tree of
// row branches (which spawn column branches at every node they visit)
// plus the source's own column branches. Branches are stored by value
// and name their header by its index in the header slab.
type linkBranch struct {
	// m is the header's index in LinkNet.hdrs.
	m int32
	// dir is the direction of the current or next hop. Broadcast
	// branches keep a fixed direction; point-to-point branches recompute
	// it at every hop start (dimension-order: X first, then Y).
	dir uint8
	// inFlight marks a hop in progress whose arrival at `at` has not yet
	// been processed.
	inFlight bool
	// spawn marks a broadcast row branch, which spawns the header's
	// column branches at every node it delivers to.
	spawn bool
	// at is the node the branch sits at (or is travelling toward when
	// inFlight); the next hop uses link at*4+dir.
	at int
	// readyAt is the cycle the current hop completes (when inFlight) or
	// the earliest departure cycle (when sitting).
	readyAt uint64
	// remaining counts hops left on this branch.
	remaining int
}

// LinkNet is the point-to-point link Network behind the ring, mesh and
// torus topologies: a W×H grid of nodes with dimension-order routing.
// Node i sits at (i mod W, i div W). Each of the 4N directed links
// carries one message at a time, so unlike the bus aggregate bandwidth
// scales with node count. Broadcasts fan out on a dimension-order tree:
// row branches travel ±X from the source, and every row node (source
// included) sprouts ±Y column branches, delivering to each of the other
// N−1 nodes exactly once. The mesh keeps worst-case latency at O(W+H);
// the torus (wrap) halves both spans by travelling each direction only
// halfway around. The ring is a one-way 1×N torus: every hop goes +Y,
// and a broadcast is a single branch that circles all N links back to
// its sender, which removes it — SCI-style sender stripping, at O(N)
// broadcast latency.
type LinkNet struct {
	cfg  LinkConfig
	n    int
	w, h int
	// wrap distinguishes the torus and ring (true) from the mesh.
	wrap bool
	// oneWay routes every hop in the plus direction (the ring). Only
	// NewRing sets it.
	oneWay bool
	// linkFree[node*4+dir] is the first cycle that directed link is idle.
	linkFree []uint64
	// flight is the branch set, in enqueue-then-spawn order (Tick's
	// link-arbitration order).
	flight []linkBranch
	// hdrs is the header slab: headers by value, addressed by index, so
	// Enqueue allocates nothing in steady state. free lists the slots of
	// retired headers for reuse.
	hdrs []linkMsg
	free []int32
	// live holds the slab index of every message with surviving
	// branches, in no particular order: a header joins at Enqueue and
	// leaves by swap-remove when its last branch retires (Tick) or dies
	// with its source (PurgeSource), so live[hdrs[i].slot] == i always
	// holds. liveAddr[k] mirrors hdrs[live[k]].msg.Addr, so a DataPhase
	// query scans one contiguous slice and touches only the headers
	// whose line matches.
	live     []int32
	liveAddr []uint64
	// bySrc counts live messages per source node (SourcePending).
	bySrc []int
	stats Stats
	obs   obs.Observer
	// arrivals is the scratch buffer Tick returns; reused so the
	// per-cycle delivery path is allocation-free in steady state.
	arrivals []Arrival
}

// GridDims factors n into the squarest W×H grid with W ≤ H: the largest
// divisor of n not exceeding √n. Prime n degenerates to a 1×n line
// (mesh) or ring (torus) — still correct, just without the bisection
// advantage, so experiment configs prefer composite node counts.
func GridDims(n int) (w, h int) {
	w = 1
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			w = d
		}
	}
	return w, n / w
}

// NewRing builds a unidirectional ring of numNodes nodes: a one-way
// 1×numNodes torus. It panics on invalid configuration
// (experiment-setup error).
func NewRing(cfg LinkConfig, numNodes int) *LinkNet {
	return newLinkNet(cfg, 1, numNodes, true, true)
}

// NewMesh builds a 2D mesh of numNodes nodes on the squarest grid that
// factors numNodes. It panics on invalid configuration
// (experiment-setup error).
func NewMesh(cfg LinkConfig, numNodes int) *LinkNet {
	w, h := GridDims(numNodes)
	return newLinkNet(cfg, w, h, false, false)
}

// NewTorus builds the wraparound variant of NewMesh.
func NewTorus(cfg LinkConfig, numNodes int) *LinkNet {
	w, h := GridDims(numNodes)
	return newLinkNet(cfg, w, h, true, false)
}

func newLinkNet(cfg LinkConfig, w, h int, wrap, oneWay bool) *LinkNet {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := w * h
	if n <= 0 {
		panic("link: need at least one node")
	}
	return &LinkNet{
		cfg: cfg, n: n, w: w, h: h, wrap: wrap, oneWay: oneWay,
		linkFree: make([]uint64, n*numDirs),
		bySrc:    make([]int, n),
	}
}

// NetStats implements Network.
func (ln *LinkNet) NetStats() *Stats { return &ln.stats }

// SetObserver attaches an observer emitting a bus.grant event when a
// message's first branch starts its first hop (nil detaches).
func (ln *LinkNet) SetObserver(o obs.Observer) { ln.obs = o }

// neighbor returns the node one hop from `at` in direction dir. Branch
// spans guarantee a mesh branch never walks off the grid; the torus
// and ring wrap.
func (ln *LinkNet) neighbor(at int, dir uint8) int {
	x, y := at%ln.w, at/ln.w
	switch dir {
	case dirXPlus:
		x++
		if x == ln.w {
			x = 0
		}
	case dirXMinus:
		x--
		if x < 0 {
			x = ln.w - 1
		}
	case dirYPlus:
		y++
		if y == ln.h {
			y = 0
		}
	case dirYMinus:
		y--
		if y < 0 {
			y = ln.h - 1
		}
	}
	return y*ln.w + x
}

// axisDist returns the hop count and direction to close a one-axis
// delta of `to-from` on an axis of `size` nodes: the absolute delta on
// a mesh, the shorter way around on a torus (ties go the plus
// direction), and always the plus way around on a ring.
func (ln *LinkNet) axisDist(from, to, size int, plus, minus uint8) (int, uint8) {
	if from == to {
		return 0, plus
	}
	if !ln.wrap {
		if to > from {
			return to - from, plus
		}
		return from - to, minus
	}
	dp := (to - from + size) % size
	dm := size - dp
	if ln.oneWay || dp <= dm {
		return dp, plus
	}
	return dm, minus
}

// routeDir returns the dimension-order next-hop direction from `at`
// toward dst: X first, then Y.
func (ln *LinkNet) routeDir(at, dst int) uint8 {
	dx, dirX := ln.axisDist(at%ln.w, dst%ln.w, ln.w, dirXPlus, dirXMinus)
	if dx != 0 {
		return dirX
	}
	_, dirY := ln.axisDist(at/ln.w, dst/ln.w, ln.h, dirYPlus, dirYMinus)
	return dirY
}

// hopCount returns the dimension-order route length from src to dst.
func (ln *LinkNet) hopCount(src, dst int) int {
	dx, _ := ln.axisDist(src%ln.w, dst%ln.w, ln.w, dirXPlus, dirXMinus)
	dy, _ := ln.axisDist(src/ln.w, dst/ln.w, ln.h, dirYPlus, dirYMinus)
	return dx + dy
}

// spans returns the ± branch lengths that cover the size-1 other nodes
// of one axis: everything to each side on a mesh; half each way on a
// torus (the plus branch takes floor(size/2) hops, the minus branch the
// remaining ceil(size/2)-1); and on a ring one plus branch of size hops,
// whose last hop returns to the sender so that it can strip the message.
func (ln *LinkNet) spans(pos, size int) (plus, minus int) {
	switch {
	case !ln.wrap:
		return size - 1 - pos, pos
	case ln.oneWay && size > 1:
		return size, 0
	}
	return size / 2, size - 1 - size/2
}

// Enqueue implements Network. A point-to-point message becomes one
// dimension-order branch; a broadcast becomes its tree's initial
// branches at the source (±X row branches that will spawn columns, plus
// the source's own ±Y column branches). The header takes a slab slot,
// reusing a retired one when there is any.
func (ln *LinkNet) Enqueue(m Message) {
	if m.Src < 0 || m.Src >= ln.n {
		panic(fmt.Sprintf("link: bad source %d", m.Src))
	}
	var hi int32
	if k := len(ln.free); k > 0 {
		hi = ln.free[k-1]
		ln.free = ln.free[:k-1]
	} else {
		hi = int32(len(ln.hdrs))
		ln.hdrs = append(ln.hdrs, linkMsg{})
	}
	hdr := &ln.hdrs[hi]
	*hdr = linkMsg{msg: m}
	start := len(ln.flight)
	if m.Kind == Broadcast {
		rowPlus, rowMinus := ln.spans(m.Src%ln.w, ln.w)
		hdr.colPlus, hdr.colMinus = ln.spans(m.Src/ln.w, ln.h)
		if rowPlus > 0 {
			hdr.branches++
			ln.flight = append(ln.flight, linkBranch{m: hi, at: m.Src, dir: dirXPlus, readyAt: m.ReadyAt, remaining: rowPlus, spawn: true})
		}
		if rowMinus > 0 {
			hdr.branches++
			ln.flight = append(ln.flight, linkBranch{m: hi, at: m.Src, dir: dirXMinus, readyAt: m.ReadyAt, remaining: rowMinus, spawn: true})
		}
		ln.spawnColumns(hi, m.Src, m.ReadyAt)
	} else {
		if m.Dst == m.Src {
			panic(fmt.Sprintf("link: self-send from node %d", m.Src))
		}
		hdr.branches++
		ln.flight = append(ln.flight, linkBranch{m: hi, at: m.Src, dir: ln.routeDir(m.Src, m.Dst), readyAt: m.ReadyAt, remaining: ln.hopCount(m.Src, m.Dst)})
	}
	for _, b := range ln.flight[start:] {
		hdr.srcDirs |= 1 << b.dir
	}
	if hdr.branches > 0 {
		hdr.slot = int32(len(ln.live))
		ln.live = append(ln.live, hi)
		ln.liveAddr = append(ln.liveAddr, m.Addr)
		ln.bySrc[m.Src]++
	} else {
		ln.free = append(ln.free, hi) // a 1-node broadcast: nothing on the wire
	}
	ln.stats.TotalQueued.Inc()
	ln.stats.Messages.Inc()
	ln.stats.Bytes.Add(uint64(m.WireBytes()))
	ln.stats.ByKindMsgs[m.Kind].Inc()
	ln.stats.ByKindBytes[m.Kind].Add(uint64(m.WireBytes()))
}

// spawnColumns appends node at's ±Y column branches of broadcast hi's
// tree to the branch set (the header carries the spans, identical for
// every row node).
func (ln *LinkNet) spawnColumns(hi int32, at int, readyAt uint64) {
	hdr := &ln.hdrs[hi]
	if hdr.colPlus > 0 {
		hdr.branches++
		ln.flight = append(ln.flight, linkBranch{m: hi, at: at, dir: dirYPlus, readyAt: readyAt, remaining: hdr.colPlus})
	}
	if hdr.colMinus > 0 {
		hdr.branches++
		ln.flight = append(ln.flight, linkBranch{m: hi, at: at, dir: dirYMinus, readyAt: readyAt, remaining: hdr.colMinus})
	}
}

// retire removes message hi, whose last branch has finished or died,
// from the live list, moving the list's last entry into its slot, and
// returns its slab slot to the free list.
//
//dsvet:hotpath
func (ln *LinkNet) retire(hi int32) {
	slot := ln.hdrs[hi].slot
	last := len(ln.live) - 1
	moved := ln.live[last]
	ln.hdrs[moved].slot = slot
	ln.live[slot] = moved
	ln.liveAddr[slot] = ln.liveAddr[last]
	ln.live = ln.live[:last]
	ln.liveAddr = ln.liveAddr[:last]
	ln.bySrc[ln.hdrs[hi].msg.Src]--
	ln.free = append(ln.free, hi)
}

// Pending implements Network: messages (not branches) still on the
// interconnect.
func (ln *LinkNet) Pending() int { return len(ln.live) }

// SourcePending implements Network.
func (ln *LinkNet) SourcePending(src int) int { return ln.bySrc[src] }

// PurgeSource implements Network: messages src submitted that have not
// yet touched the wire die with the node (all their branches at once);
// messages with any hop already taken keep flowing — the remaining hops
// are driven by the routers, not the dead source (a ring's sender strip
// still works, because removal counts hops, not sender liveness).
func (ln *LinkNet) PurgeSource(src int) int {
	n := 0
	kept := ln.flight[:0]
	for _, b := range ln.flight {
		if h := &ln.hdrs[b.m]; h.msg.Src == src && !h.injected {
			h.branches--
			if h.branches == 0 {
				n++
				ln.retire(b.m)
			}
			continue
		}
		kept = append(kept, b)
	}
	ln.flight = kept
	return n
}

// NextDeliveryCycle implements Network: the minimum over all in-flight
// hops' completion cycles and all sitting branches' earliest possible
// departures (ready and link free). The value is a safe lower bound —
// contention may push an actual departure later, and a Tick at the
// returned cycle then simply does nothing and the scheduler recomputes.
func (ln *LinkNet) NextDeliveryCycle(now uint64) uint64 {
	next := uint64(NoEvent)
	for i := range ln.flight {
		b := &ln.flight[i]
		at := b.readyAt
		if !b.inFlight {
			if free := ln.linkFree[b.at*numDirs+int(b.dir)]; free > at {
				at = free
			}
		}
		if at <= now {
			at = now + 1
		}
		if at < next {
			next = at
		}
	}
	return next
}

// Lookahead implements Network. One header-only hop is the cheapest move
// any branch can make; a message's first delivery, and any link
// occupancy its branches impose on older traffic, is at least that far
// past its ReadyAt.
func (ln *LinkNet) Lookahead() uint64 {
	la := ln.cfg.transferCycles(HeaderBytes)
	if la < 1 {
		la = 1
	}
	return la
}

// NewScratch implements Network.
func (ln *LinkNet) NewScratch() Network {
	return newLinkNet(ln.cfg, ln.w, ln.h, ln.wrap, ln.oneWay)
}

// CopyStateFrom implements Network: replicate link occupancy, counters,
// the header slab with its free and live lists, and every branch.
// Branches name headers by slab index, so plain slice copies suffice.
func (ln *LinkNet) CopyStateFrom(src Network) {
	s := src.(*LinkNet)
	copy(ln.linkFree, s.linkFree)
	copy(ln.bySrc, s.bySrc)
	ln.hdrs = append(ln.hdrs[:0], s.hdrs...)
	ln.free = append(ln.free[:0], s.free...)
	ln.live = append(ln.live[:0], s.live...)
	ln.liveAddr = append(ln.liveAddr[:0], s.liveAddr...)
	ln.flight = append(ln.flight[:0], s.flight...)
}

// DataPhase implements Network with binding-constraint semantics: a
// matching message with any branch on the wire is Transfer; a tree not
// yet injected whose own readiness is the binding constraint (every
// departure link already free by then) is Queued; anything else waits
// behind other traffic — Blocked. The scan is one address compare per
// live message; the branch-level state it needs is summarised in the
// header (hopping, injected, srcDirs). All inputs are frozen across any
// stretch NextDeliveryCycle certifies as no-ops, so attribution cannot
// flip inside a skipped stretch.
//
//dsvet:hotpath
func (ln *LinkNet) DataPhase(addr uint64, dst int, now uint64) MsgPhase {
	best := PhaseAbsent
	for i, a := range ln.liveAddr {
		if a != addr {
			continue
		}
		h := &ln.hdrs[ln.live[i]]
		if !dataMatch(h.msg, addr, dst) {
			continue
		}
		p := PhaseBlocked
		switch {
		case h.hopping > 0:
			return PhaseTransfer // the maximum phase: nothing can beat it
		case !h.injected && ln.sourceLinksFree(h):
			p = PhaseQueued
		}
		if p > best {
			best = p
		}
	}
	return best
}

// sourceLinksFree reports whether every departure link of an
// uninjected message is free by the message's own ReadyAt. One busy
// link makes the branch behind it Blocked, which outranks the others'
// Queued.
func (ln *LinkNet) sourceLinksFree(h *linkMsg) bool {
	links := ln.linkFree[h.msg.Src*numDirs : h.msg.Src*numDirs+numDirs]
	for d := range links {
		if h.srcDirs&(1<<d) != 0 && links[d] > h.msg.ReadyAt {
			return false
		}
	}
	return true
}

// Tick implements Network. Each branch alternates between completing a
// hop — delivering at the node it reaches unless that is the sender
// (only a ring's broadcast returns there) and, on row branches,
// spawning that node's column branches — and starting its next hop as
// soon as its outgoing link is free. Spawned branches are appended to
// the branch set and join the scan of the same Tick in deterministic
// append order, so a column branch may start its first hop the same
// cycle its row parent arrives (the router forwards and replicates in
// one cycle; HopCycles models the latency). Finished branches are
// compacted out in place: the write index never passes the read index,
// and spawns land beyond both, so a surviving branch is only copied once
// an earlier one has finished. Distinct links carry distinct branches
// concurrently. The returned slice is only valid until the next call.
//
//dsvet:hotpath
func (ln *LinkNet) Tick(now uint64) []Arrival {
	out := ln.arrivals[:0]
	kept := 0
	for i := 0; i < len(ln.flight); i++ {
		b := &ln.flight[i]
		// The slab does not grow during Tick, so h stays valid.
		h := &ln.hdrs[b.m]
		// Complete an in-progress hop whose transfer has finished.
		if b.inFlight && b.readyAt <= now {
			b.inFlight = false
			h.hopping--
			b.remaining--
			if h.msg.Kind == Broadcast {
				if b.at != h.msg.Src {
					out = append(out, Arrival{Node: b.at, Msg: h.msg})
				}
				if b.spawn {
					// Row branch: sprout this row node's column branches,
					// scanned later in this same Tick. The append may move
					// the branch set, so re-take b.
					ln.spawnColumns(b.m, b.at, now)
					b = &ln.flight[i]
				}
			} else if b.remaining == 0 {
				out = append(out, Arrival{Node: b.at, Msg: h.msg})
			}
			if b.remaining == 0 {
				h.branches--
				if h.branches == 0 {
					ln.retire(b.m)
				}
				continue // branch done
			}
			if h.msg.Kind != Broadcast {
				// Dimension-order: recompute the direction at each hop.
				b.dir = ln.routeDir(b.at, h.msg.Dst)
			}
		}
		// Start the next hop if sitting, ready, and the link is free.
		if !b.inFlight && b.readyAt <= now {
			if link := b.at*numDirs + int(b.dir); ln.linkFree[link] <= now {
				occ := ln.cfg.transferCycles(h.msg.WireBytes())
				ln.linkFree[link] = now + occ
				ln.stats.BusyCycles.Add(occ)
				if !h.injected {
					h.injected = true
					if ln.obs != nil {
						ln.obs.Event(obs.Event{
							Cycle: now, Node: h.msg.Src, Kind: obs.EvBusGrant,
							Addr: h.msg.Addr, Arg: uint64(h.msg.WireBytes()),
						})
					}
				}
				b.at = ln.neighbor(b.at, b.dir)
				b.readyAt = now + occ
				b.inFlight = true
				h.hopping++
			}
		}
		if kept != i {
			ln.flight[kept] = *b
		}
		kept++
	}
	ln.flight = ln.flight[:kept]
	ln.arrivals = out
	return out
}
