package bus

import "testing"

// TestBusTickZeroAllocs: Tick runs once per machine cycle, so the
// arbitrate/deliver path must not allocate — queue heads are consumed by
// reslicing, never by copying. Messages are enqueued before measurement
// (Enqueue may grow the per-source queues); the measured window covers
// both busy progress and post-drain idle ticks.
func TestBusTickZeroAllocs(t *testing.T) {
	b := New(DefaultConfig(), 4)
	for i := 0; i < 256; i++ {
		b.Enqueue(Message{
			Kind: Broadcast, Src: i % 4,
			Addr: 0x1000 + uint64(i)*64, PayloadBytes: 32,
			ReadyAt: uint64(i),
		})
	}
	now := uint64(0)
	for ; now < 100; now++ { // warmup: first grants, steady rotation
		b.Tick(now)
	}
	if allocs := testing.AllocsPerRun(10_000, func() {
		b.Tick(now)
		now++
	}); allocs != 0 {
		t.Fatalf("Bus.Tick allocated %.3f times per cycle", allocs)
	}
}

// linkCycle is one machine cycle of steady link traffic: every 16th
// cycle a node (rotating) submits a message, alternating broadcasts
// with point-to-point responses, below what the links drain; then the
// network ticks and a stalled load queries DataPhase.
func linkCycle(ln *LinkNet, now uint64) {
	if now%16 == 0 {
		k := int(now / 16)
		m := Message{Kind: Broadcast, Src: k % ln.n, Addr: 0x1000 + uint64(k%32)*64, PayloadBytes: 32, ReadyAt: now}
		if k%2 == 1 {
			m.Kind, m.Dst = Response, (m.Src+1+k%(ln.n-1))%ln.n
		}
		ln.Enqueue(m)
	}
	ln.Tick(now)
	ln.DataPhase(0x1040, ln.n-1, now)
}

// assertLinkZeroAllocs runs linkCycle through a warmup that grows the
// branch set, header slab, free and live lists and arrival scratch to
// their high-water marks, then asserts that further cycles — Enqueue,
// Tick and DataPhase together — never allocate.
func assertLinkZeroAllocs(t *testing.T, name string, ln *LinkNet) {
	t.Helper()
	now := uint64(0)
	for ; now < 20_000; now++ {
		linkCycle(ln, now)
	}
	if ln.Pending() == 0 {
		t.Fatalf("%s: warmup left the network idle", name)
	}
	// AllocsPerRun truncates to whole allocations per call, so each call
	// spans one enqueue period: a per-message allocation reads as 1.
	if allocs := testing.AllocsPerRun(1_000, func() {
		for end := now + 16; now < end; now++ {
			linkCycle(ln, now)
		}
	}); allocs != 0 {
		t.Fatalf("%s: Enqueue+Tick+DataPhase allocated %.3f times per message", name, allocs)
	}
}

// TestRingTickZeroAllocs: the ring keeps message headers in its slab
// and reuses its branch and arrival buffers, so steady-state traffic is
// allocation-free end to end.
func TestRingTickZeroAllocs(t *testing.T) {
	assertLinkZeroAllocs(t, "ring", NewRing(DefaultLinkConfig(), 4))
}

// TestMeshTickZeroAllocs: the mesh and torus compact their branch sets
// in place, spawn column branches into the same buffer and recycle
// header slots, so steady-state traffic is allocation-free end to end.
func TestMeshTickZeroAllocs(t *testing.T) {
	assertLinkZeroAllocs(t, "mesh", NewMesh(DefaultLinkConfig(), 9))
	assertLinkZeroAllocs(t, "torus", NewTorus(DefaultLinkConfig(), 9))
}
