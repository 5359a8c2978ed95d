package ooo

import "math/bits"

// storeRef is the footprint of one dispatched store, as memDeps needs it
// to order and forward later loads.
type storeRef struct {
	seq  uint64
	addr uint64
	size int
	// private marks stores inside a result-communication region. They
	// must never forward to non-private loads: at DataScalar nodes that
	// skip the region, the store is absent from the stream and cannot
	// forward, so the owner forwarding would elide a broadcast the
	// skippers are waiting on.
	private bool
}

// storeSlot is one storeTable entry: tag is the chunk address plus one
// (chunks are 8-byte aligned, so a real tag is never zero and the zero
// value marks an empty slot).
type storeSlot struct {
	tag uint64
	ref storeRef
}

// storeTable maps each 8-byte-aligned chunk to the last store touching
// it, for store-to-load forwarding. It is an open-addressed table with
// linear probing over a power-of-two slot array, and it never deletes:
//
//   - A store overwrites its chunks' entries, so the last store per chunk
//     wins.
//   - An entry is visible to a load only if it is at most fwdDist seqs
//     older than the load and not older than the last region barrier.
//     Invisible entries stay in place as probe-chain fillers.
//   - When half the slots are occupied, the table is rebuilt with only
//     the entries a future load could still see (at most two chunks for
//     each of the last fwdDist+1 stores), doubling the slot count when
//     they would fill more than a quarter of it. Rebuilds are therefore
//     amortised O(1) per store, and the table never allocates once it
//     has grown to the workload's live-store footprint.
//
// Hiding an entry has the same effect on memDeps as deleting it from a
// map: the youngest overlapping store decides, and when that one is too
// old, every older one is too.
type storeTable struct {
	slots   []storeSlot
	spare   []storeSlot // rebuild target, swapped with slots
	shift   uint        // 64 - log2(len(slots)), for the multiplicative hash
	used    int         // occupied slots, visible or not
	fwdDist uint64
	// barrier is the seq of the last region marker: stores older than it
	// are invisible (a marker is a forwarding barrier).
	barrier uint64
}

const storeTableMinSlots = 64

func newStoreTable(fwdDist uint64) storeTable {
	t := storeTable{fwdDist: fwdDist}
	t.resize(storeTableMinSlots)
	return t
}

func (t *storeTable) resize(n int) {
	t.slots = make([]storeSlot, n)
	t.spare = make([]storeSlot, n)
	t.shift = 64 - uint(bits.TrailingZeros(uint(n)))
	t.used = 0
}

// home returns the first probe position for tag (Fibonacci hashing: the
// multiply spreads consecutive chunks across the table).
func (t *storeTable) home(tag uint64) int {
	return int((tag >> 3 * 0x9e3779b97f4a7c15) >> t.shift)
}

// visible reports whether a store recorded as ref can still decide a
// load (or a future load) whose seq is seq.
func (t *storeTable) visible(ref *storeRef, seq uint64) bool {
	return ref.seq >= t.barrier && seq-ref.seq <= t.fwdDist
}

// insertSlot writes ref as chunk tag's entry into slots without checking
// occupancy; it reports whether the entry took a fresh slot.
func insertSlot(slots []storeSlot, home int, tag uint64, ref storeRef) bool {
	mask := len(slots) - 1
	for i := home; ; i = (i + 1) & mask {
		s := &slots[i]
		if s.tag == tag || s.tag == 0 {
			fresh := s.tag == 0
			s.tag, s.ref = tag, ref
			return fresh
		}
	}
}

// record makes ref the last store of every chunk it touches.
//
//dsvet:hotpath
func (t *storeTable) record(ref storeRef) {
	hi := (ref.addr + uint64(ref.size) - 1) &^ 7
	for chunk := ref.addr &^ 7; ; chunk += 8 {
		tag := chunk + 1
		if insertSlot(t.slots, t.home(tag), tag, ref) {
			t.used++
		}
		if chunk == hi {
			break
		}
	}
	if 2*t.used > len(t.slots) {
		t.rebuild(ref.seq + 1)
	}
}

// rebuild keeps only the entries a load at seq next or later can see,
// growing the table when those alone would fill a quarter of it.
//
//dsvet:hotpath
func (t *storeTable) rebuild(next uint64) {
	live := 0
	for i := range t.slots {
		if s := &t.slots[i]; s.tag != 0 && t.visible(&s.ref, next) {
			live++
		}
	}
	old := t.slots
	if 4*live > len(old) {
		// The only allocation: growth to the workload's live-store
		// footprint, a bounded number of times per run.
		t.resize(2 * len(old))
	} else {
		clear(t.spare)
		t.slots, t.spare = t.spare, t.slots
		t.used = 0
	}
	for i := range old {
		if s := &old[i]; s.tag != 0 && t.visible(&s.ref, next) {
			insertSlot(t.slots, t.home(s.tag), s.tag, s.ref)
			t.used++
		}
	}
}

// youngest returns the youngest visible store overlapping the size-byte
// access at ea by the load with sequence number seq.
//
//dsvet:hotpath
func (t *storeTable) youngest(seq, ea uint64, size int) (storeRef, bool) {
	var best storeRef
	found := false
	mask := len(t.slots) - 1
	hi := (ea + uint64(size) - 1) &^ 7
	for chunk := ea &^ 7; ; chunk += 8 {
		tag := chunk + 1
		for i := t.home(tag); ; i = (i + 1) & mask {
			s := &t.slots[i]
			if s.tag == 0 {
				break
			}
			if s.tag != tag {
				continue
			}
			if t.visible(&s.ref, seq) && overlaps(s.ref.addr, s.ref.size, ea, size) &&
				(!found || s.ref.seq > best.seq) {
				best, found = s.ref, true
			}
			break
		}
		if chunk == hi {
			break
		}
	}
	return best, found
}

// setBarrier hides every store older than seq.
func (t *storeTable) setBarrier(seq uint64) { t.barrier = seq }

func overlaps(aAddr uint64, aSize int, bAddr uint64, bSize int) bool {
	return aAddr < bAddr+uint64(bSize) && bAddr < aAddr+uint64(aSize)
}
