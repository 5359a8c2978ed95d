package bus

import (
	"fmt"
	"testing"

	"github.com/wisc-arch/datascalar/internal/stats"
)

// meshDataPhaseByBranch is the branch scan Mesh.DataPhase replaced,
// kept as the reference model: every tree branch of a matching message
// votes with its own state, and the query answers the highest phase.
func meshDataPhaseByBranch(ms *Mesh, addr uint64, dst int) MsgPhase {
	best := PhaseAbsent
	for i := range ms.flight {
		b := &ms.flight[i]
		if !dataMatch(b.m.msg, addr, dst) {
			continue
		}
		var p MsgPhase
		switch {
		case b.inFlight:
			p = PhaseTransfer
		case !b.m.injected && ms.linkFree[b.at*numDirs+int(b.dir)] <= b.readyAt:
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

// checkMeshLive verifies the live-list invariants against the branch
// set: one header per message with surviving branches, each at its own
// slot with its address mirrored, and per-header branch and hop counts
// equal to what the branches say.
func checkMeshLive(ms *Mesh) error {
	if len(ms.live) != len(ms.liveAddr) {
		return fmt.Errorf("live has %d headers, liveAddr %d", len(ms.live), len(ms.liveAddr))
	}
	for i, h := range ms.live {
		if h.slot != i || ms.liveAddr[i] != h.msg.Addr {
			return fmt.Errorf("live[%d]: slot %d addr 0x%x, liveAddr 0x%x", i, h.slot, h.msg.Addr, ms.liveAddr[i])
		}
	}
	branches := make(map[*meshMsg]int)
	hopping := make(map[*meshMsg]int)
	for _, b := range ms.flight {
		branches[b.m]++
		if b.inFlight {
			hopping[b.m]++
		}
		if b.m.slot >= len(ms.live) || ms.live[b.m.slot] != b.m {
			return fmt.Errorf("branch of %+v has a header missing from the live list", b.m.msg)
		}
	}
	if len(branches) != len(ms.live) {
		return fmt.Errorf("%d headers carry branches, %d are live", len(branches), len(ms.live))
	}
	bySrc := make([]int, ms.n)
	for _, h := range ms.live {
		if branches[h] != h.branches || hopping[h] != h.hopping {
			return fmt.Errorf("header %+v: branches %d/%d, hopping %d/%d",
				h.msg, h.branches, branches[h], h.hopping, hopping[h])
		}
		bySrc[h.msg.Src]++
	}
	for src, n := range bySrc {
		if ms.bySrc[src] != n {
			return fmt.Errorf("bySrc[%d] = %d, want %d", src, ms.bySrc[src], n)
		}
	}
	return nil
}

// diffNet is one engine under the differential test: the network, its
// reference DataPhase, and its structural invariant check.
type diffNet struct {
	name  string
	nodes int
	build func() Network
	ref   func(n Network, addr uint64, dst int) MsgPhase
	check func(n Network) error
}

func diffNets() []diffNet {
	meshRef := func(n Network, addr uint64, dst int) MsgPhase {
		return meshDataPhaseByBranch(n.(*Mesh), addr, dst)
	}
	meshCheck := func(n Network) error { return checkMeshLive(n.(*Mesh)) }
	return []diffNet{
		{"ring8", 8, func() Network { return NewRing(DefaultLinkConfig(), 8) },
			func(n Network, addr uint64, dst int) MsgPhase { return ringDataPhaseRef(n.(*Ring), addr, dst) },
			func(Network) error { return nil }},
		{"mesh12", 12, func() Network { return NewMesh(DefaultLinkConfig(), 12) }, meshRef, meshCheck},
		{"torus16", 16, func() Network { return NewTorus(DefaultLinkConfig(), 16) }, meshRef, meshCheck},
		{"mesh64", 64, func() Network { return NewMesh(DefaultLinkConfig(), 64) }, meshRef, meshCheck},
		{"torus64", 64, func() Network { return NewTorus(DefaultLinkConfig(), 64) }, meshRef, meshCheck},
	}
}

// ringDataPhaseRef restates the ring's per-message phase rule directly
// over its flight list.
func ringDataPhaseRef(r *Ring, addr uint64, dst int) MsgPhase {
	best := PhaseAbsent
	for _, f := range r.flight {
		if !dataMatch(f.msg, addr, dst) {
			continue
		}
		p := PhaseBlocked
		switch {
		case f.inFlight:
			p = PhaseTransfer
		case !f.injected && r.linkFree[f.at] <= f.readyAt:
			p = PhaseQueued
		}
		if p > best {
			best = p
		}
	}
	return best
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
// reproduce state that both delivers and classifies identically.
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
				net := dn.build()
				scratch := net.NewScratch()
				synced := false
				var seen [PhaseTransfer + 1]int
				verify := func(n Network, what string, now uint64) {
					t.Helper()
					if err := dn.check(n); err != nil {
						t.Fatalf("cycle %d (%s): %v", now, what, err)
					}
					// Large networks sample an eighth of the nodes per
					// step, rotating so every node is queried.
					stride := max(1, dn.nodes/8)
					for _, addr := range lines {
						for dst := int(now) % stride; dst < dn.nodes; dst += stride {
							if got, want := n.DataPhase(addr, dst, now), dn.ref(n, addr, dst); got != want {
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
