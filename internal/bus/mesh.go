package bus

import (
	"fmt"

	"github.com/wisc-arch/datascalar/internal/obs"
)

// Link directions. Every node owns four directed outgoing links,
// indexed node*4+dir; a mesh edge node simply never uses the links that
// would leave the grid, and a torus wraps them around.
const (
	dirXPlus = iota
	dirXMinus
	dirYPlus
	dirYMinus
	numDirs
)

// meshMsg is the per-message header shared by all of a message's tree
// branches: the payload, the liveness refcount, the column spans the
// dimension-order broadcast tree spawns at every row node (all spawning
// nodes sit in the source's row, so the spans are fixed at enqueue), and
// the summary DataPhase reads instead of walking the branches.
type meshMsg struct {
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
	// slot is the header's index in Mesh.live and Mesh.liveAddr.
	slot int
}

// meshBranch is one branch of a message's route: a point-to-point
// message is a single branch, a broadcast is a dimension-order tree of
// row branches (which spawn column branches at every node they visit)
// plus the source's own column branches. Branches are stored by value;
// the shared header is one allocation per message, made in Enqueue (off
// the hot path).
type meshBranch struct {
	m *meshMsg
	// at is the node the branch sits at (or is travelling toward when
	// inFlight); the next hop uses link at*4+dir.
	at int
	// dir is the direction of the current or next hop. Broadcast
	// branches keep a fixed direction; point-to-point branches recompute
	// it at every hop start (dimension-order: X first, then Y).
	dir uint8
	// readyAt is the cycle the current hop completes (when inFlight) or
	// the earliest departure cycle (when sitting).
	readyAt uint64
	// inFlight marks a hop in progress whose arrival at `at` has not yet
	// been processed.
	inFlight bool
	// remaining counts hops left on this branch.
	remaining int
	// spawn marks a broadcast row branch, which spawns the header's
	// column branches at every node it delivers to.
	spawn bool
}

// Mesh is a 2D mesh (or, with wrap, torus) Network of W×H nodes with
// dimension-order routing. Node i sits at (i mod W, i div W). Each of
// the 4N directed links carries one message at a time, so aggregate
// bandwidth scales with node count while the bisection — unlike the
// ring's single-lap broadcast — keeps worst-case latency at O(W+H)
// rather than O(N). Broadcasts fan out on a dimension-order tree: row
// branches travel ±X from the source, and every row node (source
// included) sprouts ±Y column branches, delivering to each of the other
// N−1 nodes exactly once with no revisits. The torus halves both spans
// by travelling each direction only halfway around.
type Mesh struct {
	cfg  LinkConfig
	n    int
	w, h int
	// wrap distinguishes the torus (true) from the mesh.
	wrap bool
	// linkFree[node*4+dir] is the first cycle that directed link is idle.
	linkFree []uint64
	// flight is the branch set, in enqueue-then-spawn order (Tick's
	// link-arbitration order).
	flight []meshBranch
	// live holds every message with surviving branches, one header each,
	// in no particular order: a header joins at Enqueue and leaves by
	// swap-remove when its last branch retires (Tick) or dies with its
	// source (PurgeSource), so live[h.slot] == h always holds.
	// liveAddr[i] mirrors live[i].msg.Addr, so a DataPhase query scans one
	// contiguous slice and touches only the headers whose line matches.
	live     []*meshMsg
	liveAddr []uint64
	// bySrc counts live messages per source node (SourcePending).
	bySrc []int
	stats Stats
	obs   obs.Observer
	// arrivals is the scratch buffer Tick returns; reused so the
	// per-cycle delivery path is allocation-free in steady state.
	arrivals []Arrival
	// hdrPool backs the header values CopyStateFrom materialises, reused
	// across copies so prediction scratchpads stay allocation-free in
	// steady state. Unused outside CopyStateFrom targets.
	hdrPool []meshMsg
}

// meshDims factors n into the squarest W×H grid with W ≤ H: the largest
// divisor of n not exceeding √n. Prime n degenerates to a 1×n line
// (mesh) or ring (torus) — still correct, just without the bisection
// advantage, so experiment configs prefer composite node counts.
func meshDims(n int) (w, h int) {
	w = 1
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			w = d
		}
	}
	return w, n / w
}

// NewMesh builds a 2D mesh of numNodes nodes on the squarest grid that
// factors numNodes. It panics on invalid configuration
// (experiment-setup error).
func NewMesh(cfg LinkConfig, numNodes int) *Mesh { return newMesh(cfg, numNodes, false) }

// NewTorus builds the wraparound variant of NewMesh.
func NewTorus(cfg LinkConfig, numNodes int) *Mesh { return newMesh(cfg, numNodes, true) }

func newMesh(cfg LinkConfig, numNodes int, wrap bool) *Mesh {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if numNodes <= 0 {
		panic("mesh: need at least one node")
	}
	w, h := meshDims(numNodes)
	return &Mesh{
		cfg: cfg, n: numNodes, w: w, h: h, wrap: wrap,
		linkFree: make([]uint64, numNodes*numDirs),
		bySrc:    make([]int, numNodes),
	}
}

// Config returns the link configuration.
func (ms *Mesh) Config() LinkConfig { return ms.cfg }

// Dims returns the grid dimensions (W, H).
func (ms *Mesh) Dims() (int, int) { return ms.w, ms.h }

// Wrap reports whether the grid is a torus.
func (ms *Mesh) Wrap() bool { return ms.wrap }

// NetStats implements Network.
func (ms *Mesh) NetStats() *Stats { return &ms.stats }

// SetObserver attaches an observer emitting a bus.grant event when a
// message's first branch starts its first hop (nil detaches).
func (ms *Mesh) SetObserver(o obs.Observer) { ms.obs = o }

// neighbor returns the node one hop from `at` in direction dir. Branch
// spans guarantee a mesh branch never walks off the grid; the torus
// wraps.
func (ms *Mesh) neighbor(at int, dir uint8) int {
	x, y := at%ms.w, at/ms.w
	switch dir {
	case dirXPlus:
		x++
		if x == ms.w {
			x = 0
		}
	case dirXMinus:
		x--
		if x < 0 {
			x = ms.w - 1
		}
	case dirYPlus:
		y++
		if y == ms.h {
			y = 0
		}
	case dirYMinus:
		y--
		if y < 0 {
			y = ms.h - 1
		}
	}
	return y*ms.w + x
}

// axisDist returns the hop count and direction to close a one-axis
// delta of `to-from` on an axis of `size` nodes: the absolute delta on
// a mesh, the shorter way around on a torus (ties go the plus
// direction).
func (ms *Mesh) axisDist(from, to, size int, plus, minus uint8) (int, uint8) {
	if from == to {
		return 0, plus
	}
	if !ms.wrap {
		if to > from {
			return to - from, plus
		}
		return from - to, minus
	}
	dp := (to - from + size) % size
	dm := size - dp
	if dp <= dm {
		return dp, plus
	}
	return dm, minus
}

// routeDir returns the dimension-order next-hop direction from `at`
// toward dst: X first, then Y.
func (ms *Mesh) routeDir(at, dst int) uint8 {
	dx, dirX := ms.axisDist(at%ms.w, dst%ms.w, ms.w, dirXPlus, dirXMinus)
	if dx != 0 {
		return dirX
	}
	_, dirY := ms.axisDist(at/ms.w, dst/ms.w, ms.h, dirYPlus, dirYMinus)
	return dirY
}

// hopCount returns the dimension-order route length from src to dst.
func (ms *Mesh) hopCount(src, dst int) int {
	dx, _ := ms.axisDist(src%ms.w, dst%ms.w, ms.w, dirXPlus, dirXMinus)
	dy, _ := ms.axisDist(src/ms.w, dst/ms.w, ms.h, dirYPlus, dirYMinus)
	return dx + dy
}

// spans returns the ± branch lengths that cover the size-1 other nodes
// of one axis: everything to each side on a mesh, half each way on a
// torus (the plus branch takes the extra node when size is odd... it
// takes floor(size/2), the minus branch the remaining ceil(size/2)-1).
func (ms *Mesh) spans(pos, size int) (plus, minus int) {
	if !ms.wrap {
		return size - 1 - pos, pos
	}
	return size / 2, size - 1 - size/2
}

// Enqueue implements Network. A point-to-point message becomes one
// dimension-order branch; a broadcast becomes its tree's initial
// branches at the source (±X row branches that will spawn columns, plus
// the source's own ±Y column branches).
func (ms *Mesh) Enqueue(m Message) {
	if m.Src < 0 || m.Src >= ms.n {
		panic(fmt.Sprintf("mesh: bad source %d", m.Src))
	}
	hdr := &meshMsg{msg: m}
	start := len(ms.flight)
	if m.Kind == Broadcast {
		rowPlus, rowMinus := ms.spans(m.Src%ms.w, ms.w)
		hdr.colPlus, hdr.colMinus = ms.spans(m.Src/ms.w, ms.h)
		if rowPlus > 0 {
			hdr.branches++
			ms.flight = append(ms.flight, meshBranch{m: hdr, at: m.Src, dir: dirXPlus, readyAt: m.ReadyAt, remaining: rowPlus, spawn: true})
		}
		if rowMinus > 0 {
			hdr.branches++
			ms.flight = append(ms.flight, meshBranch{m: hdr, at: m.Src, dir: dirXMinus, readyAt: m.ReadyAt, remaining: rowMinus, spawn: true})
		}
		ms.flight = spawnColumns(ms.flight, hdr, m.Src, m.ReadyAt)
	} else {
		if m.Dst == m.Src {
			panic(fmt.Sprintf("mesh: self-send from node %d", m.Src))
		}
		hdr.branches++
		ms.flight = append(ms.flight, meshBranch{m: hdr, at: m.Src, dir: ms.routeDir(m.Src, m.Dst), readyAt: m.ReadyAt, remaining: ms.hopCount(m.Src, m.Dst)})
	}
	for _, b := range ms.flight[start:] {
		hdr.srcDirs |= 1 << b.dir
	}
	if hdr.branches > 0 {
		hdr.slot = len(ms.live)
		ms.live = append(ms.live, hdr)
		ms.liveAddr = append(ms.liveAddr, m.Addr)
		ms.bySrc[m.Src]++
	}
	ms.stats.TotalQueued.Inc()
	ms.stats.Messages.Inc()
	ms.stats.Bytes.Add(uint64(m.WireBytes()))
	ms.stats.ByKindMsgs[m.Kind].Inc()
	ms.stats.ByKindBytes[m.Kind].Add(uint64(m.WireBytes()))
}

// spawnColumns appends a node's ±Y column branches of a broadcast tree
// to dst and returns it (the header carries the spans, identical for
// every row node). It takes the branch set explicitly because Tick
// spawns into its scan buffer, not ms.flight.
func spawnColumns(dst []meshBranch, hdr *meshMsg, at int, readyAt uint64) []meshBranch {
	if hdr.colPlus > 0 {
		hdr.branches++
		dst = append(dst, meshBranch{m: hdr, at: at, dir: dirYPlus, readyAt: readyAt, remaining: hdr.colPlus})
	}
	if hdr.colMinus > 0 {
		hdr.branches++
		dst = append(dst, meshBranch{m: hdr, at: at, dir: dirYMinus, readyAt: readyAt, remaining: hdr.colMinus})
	}
	return dst
}

// retire removes a message whose last branch has finished or died from
// the live list, moving the list's last header into its slot.
//
//dsvet:hotpath
func (ms *Mesh) retire(h *meshMsg) {
	last := len(ms.live) - 1
	moved := ms.live[last]
	moved.slot = h.slot
	ms.live[h.slot] = moved
	ms.liveAddr[h.slot] = ms.liveAddr[last]
	ms.live[last] = nil
	ms.live = ms.live[:last]
	ms.liveAddr = ms.liveAddr[:last]
	ms.bySrc[h.msg.Src]--
}

// Pending implements Network: messages (not branches) still on the
// interconnect.
func (ms *Mesh) Pending() int { return len(ms.live) }

// SourcePending implements Network.
func (ms *Mesh) SourcePending(src int) int { return ms.bySrc[src] }

// PurgeSource implements Network: messages src submitted whose trees
// have not yet touched the wire die with the node (all their branches
// at once); messages with any hop already taken keep flowing — the
// remaining hops are driven by the routers, not the dead source.
func (ms *Mesh) PurgeSource(src int) int {
	n := 0
	kept := ms.flight[:0]
	for _, b := range ms.flight {
		if b.m.msg.Src == src && !b.m.injected {
			b.m.branches--
			if b.m.branches == 0 {
				n++
				ms.retire(b.m)
			}
			continue
		}
		kept = append(kept, b)
	}
	// Clear dropped tails so stale *meshMsg pointers do not linger in
	// the backing array.
	for i := len(kept); i < len(ms.flight); i++ {
		ms.flight[i] = meshBranch{}
	}
	ms.flight = kept
	return n
}

// NextDeliveryCycle implements Network for the mesh: the minimum over
// all in-flight hops' completion cycles and all sitting branches'
// earliest possible departures (ready and link free). As on the ring
// the value is a safe lower bound — contention may push an actual
// departure later, and a Tick at the returned cycle then simply does
// nothing and the scheduler recomputes.
func (ms *Mesh) NextDeliveryCycle(now uint64) uint64 {
	next := uint64(NoEvent)
	for i := range ms.flight {
		b := &ms.flight[i]
		at := b.readyAt
		if !b.inFlight {
			if free := ms.linkFree[b.at*numDirs+int(b.dir)]; free > at {
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
func (ms *Mesh) Lookahead() uint64 {
	la := ms.cfg.transferCycles(HeaderBytes)
	if la < 1 {
		la = 1
	}
	return la
}

// NewScratch implements Network.
func (ms *Mesh) NewScratch() Network { return newMesh(ms.cfg, ms.n, ms.wrap) }

// CopyStateFrom implements Network for the mesh: replicate link
// occupancy, counters, the live list and every branch. Header i of the
// copy is a clone of src's live[i], so each branch finds its header's
// copy at its slot and sibling branches of one broadcast keep sharing a
// refcounted header. Header values land in a reused pool, sized before
// any pointer into it is taken, so those pointers stay stable.
func (ms *Mesh) CopyStateFrom(src Network) {
	s := src.(*Mesh)
	copy(ms.linkFree, s.linkFree)
	copy(ms.bySrc, s.bySrc)
	if cap(ms.hdrPool) < len(s.live) {
		ms.hdrPool = make([]meshMsg, len(s.live), 2*len(s.live))
	}
	ms.hdrPool = ms.hdrPool[:len(s.live)]
	clear(ms.live[min(len(s.live), len(ms.live)):])
	ms.live = ms.live[:0]
	for i, h := range s.live {
		ms.hdrPool[i] = *h
		ms.live = append(ms.live, &ms.hdrPool[i])
	}
	ms.liveAddr = append(ms.liveAddr[:0], s.liveAddr...)
	clear(ms.flight[min(len(s.flight), len(ms.flight)):])
	ms.flight = ms.flight[:0]
	for _, b := range s.flight {
		b.m = &ms.hdrPool[b.m.slot]
		ms.flight = append(ms.flight, b)
	}
}

// DataPhase implements Network for the mesh, mirroring the ring's
// binding-constraint semantics: a matching message with any branch on
// the wire is Transfer; a tree not yet injected whose own readiness is
// the binding constraint (every departure link already free by then) is
// Queued; anything else waits behind other traffic — Blocked. The scan
// is one address compare per live message; the branch-level state it
// needs is summarised in the header (hopping, injected, srcDirs). All
// inputs are frozen across any stretch NextDeliveryCycle certifies as
// no-ops, so attribution cannot flip inside a skipped stretch.
//
//dsvet:hotpath
func (ms *Mesh) DataPhase(addr uint64, dst int, now uint64) MsgPhase {
	best := PhaseAbsent
	for i, a := range ms.liveAddr {
		if a != addr {
			continue
		}
		h := ms.live[i]
		if !dataMatch(h.msg, addr, dst) {
			continue
		}
		p := PhaseBlocked
		switch {
		case h.hopping > 0:
			return PhaseTransfer // the maximum phase: nothing can beat it
		case !h.injected && ms.sourceLinksFree(h):
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
func (ms *Mesh) sourceLinksFree(h *meshMsg) bool {
	links := ms.linkFree[h.msg.Src*numDirs : h.msg.Src*numDirs+numDirs]
	for d := range links {
		if h.srcDirs&(1<<d) != 0 && links[d] > h.msg.ReadyAt {
			return false
		}
	}
	return true
}

// Tick implements Network. Each branch alternates between completing a
// hop — delivering at the node it reaches and, on row branches,
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
func (ms *Mesh) Tick(now uint64) []Arrival {
	out := ms.arrivals[:0]
	kept := 0
	for i := 0; i < len(ms.flight); i++ {
		b := &ms.flight[i]
		// Complete an in-progress hop whose transfer has finished.
		if b.inFlight && b.readyAt <= now {
			b.inFlight = false
			b.m.hopping--
			b.remaining--
			if b.m.msg.Kind == Broadcast {
				// Tree branches deliver at every node they reach and
				// never revisit the source.
				out = append(out, Arrival{Node: b.at, Msg: b.m.msg})
				if b.spawn {
					// Row branch: sprout this row node's column branches,
					// scanned later in this same Tick. The append may move
					// the branch set, so re-take b.
					ms.flight = spawnColumns(ms.flight, b.m, b.at, now)
					b = &ms.flight[i]
				}
			} else if b.remaining == 0 {
				out = append(out, Arrival{Node: b.at, Msg: b.m.msg})
			}
			if b.remaining == 0 {
				b.m.branches--
				if b.m.branches == 0 {
					ms.retire(b.m)
				}
				continue // branch done
			}
			if b.m.msg.Kind != Broadcast {
				// Dimension-order: recompute the direction at each hop.
				b.dir = ms.routeDir(b.at, b.m.msg.Dst)
			}
		}
		// Start the next hop if sitting, ready, and the link is free.
		if !b.inFlight && b.readyAt <= now {
			if link := b.at*numDirs + int(b.dir); ms.linkFree[link] <= now {
				occ := ms.cfg.transferCycles(b.m.msg.WireBytes())
				ms.linkFree[link] = now + occ
				ms.stats.BusyCycles.Add(occ)
				if !b.m.injected {
					b.m.injected = true
					if ms.obs != nil {
						ms.obs.Event(obs.Event{
							Cycle: now, Node: b.m.msg.Src, Kind: obs.EvBusGrant,
							Addr: b.m.msg.Addr, Arg: uint64(b.m.msg.WireBytes()),
						})
					}
				}
				b.at = ms.neighbor(b.at, b.dir)
				b.readyAt = now + occ
				b.inFlight = true
				b.m.hopping++
			}
		}
		if kept != i {
			ms.flight[kept] = *b
		}
		kept++
	}
	// Clear the compacted-away tail so stale headers are collectable.
	clear(ms.flight[kept:])
	ms.flight = ms.flight[:kept]
	ms.arrivals = out
	return out
}
