package ooo

import (
	"fmt"
	"testing"

	"github.com/wisc-arch/datascalar/internal/emu"
	"github.com/wisc-arch/datascalar/internal/isa"
	"github.com/wisc-arch/datascalar/internal/stats"
)

// mapStores is the map-based last-store index storeTable replaced, kept
// as the reference model: chunk -> last store touching it, swept of
// entries older than FwdDist once it outgrows its live bound, emptied at
// every region marker, and consulted by picking the youngest overlapping
// entry and then rejecting it when it is more than FwdDist old.
type mapStores struct {
	m       map[uint64]storeRef
	fwdDist uint64
}

func (r *mapStores) record(ref storeRef, lo, hi, nextSeq uint64) {
	for chunk := lo; ; chunk += 8 {
		r.m[chunk] = ref
		if chunk == hi {
			break
		}
	}
	if uint64(len(r.m)) >= 4*r.fwdDist+64 {
		for chunk, e := range r.m {
			if e.seq+r.fwdDist < nextSeq {
				delete(r.m, chunk)
			}
		}
	}
}

func (r *mapStores) youngest(seq, ea uint64, size int) (storeRef, bool) {
	var best storeRef
	found := false
	hi := (ea + uint64(size) - 1) &^ 7
	for chunk := ea &^ 7; ; chunk += 8 {
		if ref, ok := r.m[chunk]; ok && ref.seq < seq && overlaps(ref.addr, ref.size, ea, size) {
			if !found || ref.seq > best.seq {
				best, found = ref, true
			}
		}
		if chunk == hi {
			break
		}
	}
	if !found || seq-best.seq > r.fwdDist {
		return storeRef{}, false
	}
	return best, true
}

// memDecision is what memDeps derives from the youngest store: the seq
// the load must wait for, and whether it forwards from that store.
type memDecision struct {
	dependsOn uint64
	depends   bool
	forwards  bool
}

func decide(best storeRef, found bool, ea uint64, size int, private bool) memDecision {
	if !found {
		return memDecision{}
	}
	contains := best.addr <= ea && best.addr+uint64(best.size) >= ea+uint64(size)
	return memDecision{dependsOn: best.seq, depends: true, forwards: contains && !(best.private && !private)}
}

// TestStoreTableMatchesMap drives the chunk table and the map reference
// with the same seeded stream of stores, loads, region markers and
// non-memory instructions, and requires identical dependence and
// forwarding decisions for every load. Addresses cluster in a small hot
// region so accesses overlap partially and across chunk boundaries
// (unaligned 2-, 4- and 8-byte accesses span two chunks), with a cold
// stream of distinct chunks that forces rebuilds and growth; FwdDist
// ranges from a few instructions, so entries expire constantly, to more
// than the stream's store count.
func TestStoreTableMatchesMap(t *testing.T) {
	sizes := []int{1, 2, 4, 8}
	for _, fwd := range []uint64{0, 2, 8, 128, 1 << 20} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("fwd%d/seed%d", fwd, seed), func(t *testing.T) {
				rng := stats.NewRNG(seed)
				tab := newStoreTable(fwd)
				ref := &mapStores{m: map[uint64]storeRef{}, fwdDist: fwd}
				var loads, deps, fwds int
				cold := uint64(0x100000)
				for seq := uint64(0); seq < 60_000; seq++ {
					size := sizes[rng.Intn(len(sizes))]
					ea := 0x1000 + rng.Uint64n(96)
					if rng.Intn(4) != 0 {
						ea &^= uint64(size - 1) // mostly aligned
					}
					if rng.Intn(8) == 0 {
						ea, cold = cold, cold+8
					}
					private := rng.Intn(16) == 0
					switch r := rng.Intn(100); {
					case r < 35:
						s := storeRef{seq: seq, addr: ea, size: size, private: private}
						lo, hi := ea&^7, (ea+uint64(size)-1)&^7
						tab.record(s)
						ref.record(s, lo, hi, seq+1)
					case r < 80:
						loads++
						gb, gf := tab.youngest(seq, ea, size)
						wb, wf := ref.youngest(seq, ea, size)
						got, want := decide(gb, gf, ea, size, private), decide(wb, wf, ea, size, private)
						if got != want {
							t.Fatalf("seq %d: load of %d bytes at 0x%x: table %+v (%+v), map %+v (%+v)",
								seq, size, ea, got, gb, want, wb)
						}
						if got.depends {
							deps++
						}
						if got.forwards {
							fwds++
						}
					case r < 81:
						tab.setBarrier(seq)
						clear(ref.m)
					}
				}
				if (fwd > 0 && (deps == 0 || fwds == 0)) || deps == loads {
					t.Fatalf("stream too tame: %d loads, %d dependent, %d forwarded", loads, deps, fwds)
				}
			})
		}
	}
}

// BenchmarkMemDeps times memDeps — the store table's record and lookup
// — per memory instruction on an allocKernel-like mix: a store and a
// load of the same word walking an array, interleaved with stack-slot
// reuse, at the default FwdDist.
func BenchmarkMemDeps(b *testing.B) {
	c := New(DefaultConfig(), NewSliceSource(nil), FixedLatencyMem{Cycles: 1})
	const n = 4096
	ops := make([]emu.Dyn, n)
	for i := range ops {
		var op isa.Op
		var ea uint64
		switch i % 4 {
		case 0:
			op, ea = isa.OpSD, 0x100000+uint64(i/4)*8
		case 1:
			op, ea = isa.OpLD, 0x100000+uint64(i/4)*8
		case 2:
			op, ea = isa.OpSW, 0x7fff00+uint64(i%16)*4
		default:
			op, ea = isa.OpLW, 0x7fff00+uint64((i+8)%16)*4
		}
		ops[i] = emu.Dyn{Instr: isa.Instr{Op: op}, EA: ea}
	}
	var u uop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// As in admit, the window has just grown past u; an empty window
		// keeps the table's cost apart from dependence bookkeeping.
		c.nextSeq = uint64(i) + 1
		c.head = c.nextSeq
		u = uop{seq: uint64(i), dyn: ops[i%n]}
		c.memDeps(&u)
	}
}
