package bus

import (
	"fmt"
	"testing"

	"github.com/wisc-arch/datascalar/internal/stats"
)

// dataPhaseByBranch is the branch scan LinkNet.DataPhase replaced,
// kept as the reference model: every tree branch of a matching message
// votes with its own state, and the query answers the highest phase.
func dataPhaseByBranch(ln *LinkNet, addr uint64, dst int) MsgPhase {
	best := PhaseAbsent
	for i := range ln.flight {
		b := &ln.flight[i]
		h := &ln.hdrs[b.m]
		if !dataMatch(h.msg, addr, dst) {
			continue
		}
		var p MsgPhase
		switch {
		case b.inFlight:
			p = PhaseTransfer
		case !h.injected && ln.linkFree[b.at*numDirs+int(b.dir)] <= b.readyAt:
			p = PhaseQueued
		default:
			p = PhaseBlocked
		}
		if p > best {
			best = p
		}
	}
	return best
}

// checkLive verifies the header slab and live-list invariants against
// the branch set: every slab slot is either live or free, exactly once;
// one live header per message with surviving branches, each at its own
// slot with its address mirrored; and per-header branch and hop counts
// equal to what the branches say.
func checkLive(ln *LinkNet) error {
	if len(ln.live) != len(ln.liveAddr) {
		return fmt.Errorf("live has %d headers, liveAddr %d", len(ln.live), len(ln.liveAddr))
	}
	owner := make([]string, len(ln.hdrs))
	for i, hi := range ln.live {
		if owner[hi] != "" {
			return fmt.Errorf("slab slot %d is live twice", hi)
		}
		owner[hi] = "live"
		h := &ln.hdrs[hi]
		if int(h.slot) != i || ln.liveAddr[i] != h.msg.Addr {
			return fmt.Errorf("live[%d]: slot %d addr 0x%x, liveAddr 0x%x", i, h.slot, h.msg.Addr, ln.liveAddr[i])
		}
	}
	for _, hi := range ln.free {
		if owner[hi] != "" {
			return fmt.Errorf("slab slot %d is free but already %s", hi, owner[hi])
		}
		owner[hi] = "free"
	}
	if len(ln.live)+len(ln.free) != len(ln.hdrs) {
		return fmt.Errorf("%d live + %d free slots, slab holds %d", len(ln.live), len(ln.free), len(ln.hdrs))
	}
	branches := make([]int, len(ln.hdrs))
	hopping := make([]int, len(ln.hdrs))
	for _, b := range ln.flight {
		if owner[b.m] != "live" {
			return fmt.Errorf("branch of %+v names slab slot %d, which is not live", ln.hdrs[b.m].msg, b.m)
		}
		branches[b.m]++
		if b.inFlight {
			hopping[b.m]++
		}
	}
	bySrc := make([]int, ln.n)
	for _, hi := range ln.live {
		h := &ln.hdrs[hi]
		if branches[hi] != h.branches || hopping[hi] != h.hopping {
			return fmt.Errorf("header %+v: branches %d/%d, hopping %d/%d",
				h.msg, h.branches, branches[hi], h.hopping, hopping[hi])
		}
		if h.branches == 0 {
			return fmt.Errorf("header %+v is live with no branches", h.msg)
		}
		bySrc[h.msg.Src]++
	}
	for src, n := range bySrc {
		if ln.bySrc[src] != n {
			return fmt.Errorf("bySrc[%d] = %d, want %d", src, ln.bySrc[src], n)
		}
	}
	return nil
}

// diffNet is one engine under the differential test: the network and
// the node count it was built for.
type diffNet struct {
	name  string
	nodes int
	build func() *LinkNet
}

func diffNets() []diffNet {
	return []diffNet{
		{"ring8", 8, func() *LinkNet { return NewRing(DefaultLinkConfig(), 8) }},
		{"mesh12", 12, func() *LinkNet { return NewMesh(DefaultLinkConfig(), 12) }},
		{"torus16", 16, func() *LinkNet { return NewTorus(DefaultLinkConfig(), 16) }},
		{"mesh64", 64, func() *LinkNet { return NewMesh(DefaultLinkConfig(), 64) }},
		{"torus64", 64, func() *LinkNet { return NewTorus(DefaultLinkConfig(), 64) }},
	}
}

// randomMessage draws a message over a small line set, so queries hit
// often: ESP broadcasts, responses, bare requests, writebacks, and
// resilience control traffic that no query may match.
func randomMessage(rng *stats.RNG, nodes int, now uint64, lines []uint64) Message {
	src := rng.Intn(nodes)
	dst := (src + 1 + rng.Intn(nodes-1)) % nodes
	m := Message{Src: src, Dst: dst, Addr: lines[rng.Intn(len(lines))], ReadyAt: now + rng.Uint64n(40)}
	switch r := rng.Intn(10); {
	case r < 5:
		m.Kind, m.PayloadBytes = Broadcast, 32
	case r < 7:
		m.Kind, m.PayloadBytes = Response, 32
	case r < 8:
		m.Kind = Request
	case r < 9:
		m.Kind, m.PayloadBytes = Request, 32 // writeback
	default:
		m.Kind, m.Ctl = Response, CtlRetryResp
		if rng.Intn(2) == 0 {
			m.Kind, m.Ctl = Broadcast, CtlFingerprint
		}
	}
	return m
}

// TestDataPhaseMatchesBranchScan drives every link engine through
// random traffic — enqueues of every kind, ticks, source purges and
// scratch copies — and checks after every step that DataPhase answers
// exactly what the reference scan does for every (line, node) pair. A
// scratch copied from the network mid-run is then driven in lockstep
// with it (same enqueues, ticks and purges), so CopyStateFrom must
// reproduce state that both delivers and classifies identically. Before
// each copy the scratch runs ahead on traffic of its own, as a
// prediction scratchpad does, so the copy must overwrite every piece of
// its state rather than find it already equal.
func TestDataPhaseMatchesBranchScan(t *testing.T) {
	lines := []uint64{0x1000, 0x1020, 0x1040, 0x2000, 0x2020}
	seeds, cycles := uint64(3), uint64(1500)
	if testing.Short() {
		seeds, cycles = 1, 800 // the race job runs -short
	}
	for _, dn := range diffNets() {
		for seed := uint64(1); seed <= seeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", dn.name, seed), func(t *testing.T) {
				rng := stats.NewRNG(seed)
				ahead := stats.NewRNG(seed + 1000)
				net := dn.build()
				scratch := net.NewScratch().(*LinkNet)
				synced := false
				var seen [PhaseTransfer + 1]int
				verify := func(n *LinkNet, what string, now uint64) {
					t.Helper()
					if err := checkLive(n); err != nil {
						t.Fatalf("cycle %d (%s): %v", now, what, err)
					}
					// Large networks sample an eighth of the nodes per
					// step, rotating so every node is queried.
					stride := max(1, dn.nodes/8)
					for _, addr := range lines {
						for dst := int(now) % stride; dst < dn.nodes; dst += stride {
							if got, want := n.DataPhase(addr, dst, now), dataPhaseByBranch(n, addr, dst); got != want {
								t.Fatalf("cycle %d (%s): DataPhase(0x%x, %d) = %v, branch scan %v",
									now, what, addr, dst, got, want)
							} else {
								seen[got]++
							}
						}
					}
				}
				for now := uint64(0); now < cycles; now++ {
					arr := net.Tick(now)
					if synced {
						sarr := scratch.Tick(now)
						if fmt.Sprint(arr) != fmt.Sprint(sarr) {
							t.Fatalf("cycle %d: scratch delivered %v, network %v", now, sarr, arr)
						}
					}
					verify(net, "after tick", now)
					// Bursty load: quiet stretches let trees drain and queued
					// phases appear; bursts pile up contention.
					burst := 0
					if now < cycles*4/5 && rng.Intn(4) == 0 {
						burst = rng.Intn(4)
					}
					for k := 0; k < burst; k++ {
						m := randomMessage(rng, dn.nodes, now, lines)
						net.Enqueue(m)
						if synced {
							scratch.Enqueue(m)
						}
					}
					if rng.Intn(150) == 0 {
						src := rng.Intn(dn.nodes)
						n := net.PurgeSource(src)
						if synced {
							if sn := scratch.PurgeSource(src); sn != n {
								t.Fatalf("cycle %d: scratch purged %d, network %d", now, sn, n)
							}
						}
					}
					if rng.Intn(60) == 0 {
						for k := uint64(1); k <= 8; k++ {
							if ahead.Intn(2) == 0 {
								scratch.Enqueue(randomMessage(ahead, dn.nodes, now+k, lines))
							}
							scratch.Tick(now + k)
						}
						scratch.CopyStateFrom(net)
						synced = true
					}
					verify(net, "after enqueue", now)
					if synced {
						if scratch.Pending() != net.Pending() {
							t.Fatalf("cycle %d: scratch pending %d, network %d", now, scratch.Pending(), net.Pending())
						}
						verify(scratch, "scratch", now)
					}
				}
				// The differential is only as strong as the phases it saw.
				for p, n := range seen {
					if n == 0 {
						t.Errorf("phase %v never observed", MsgPhase(p))
					}
				}
			})
		}
	}
}
