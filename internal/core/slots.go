package core

import (
	"math/bits"

	"github.com/wisc-arch/datascalar/internal/ooo"
)

// The node's per-load and per-line protocol state lives in two slot
// tables instead of Go maps: both are consulted on every issue, commit
// and stall classification, and both have a small bound on live entries
// that fixed power-of-two arrays exploit.

// pow2AtLeast returns the smallest power of two >= n (and >= 1).
func pow2AtLeast(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// issueTable holds the issueInfo of every issued, uncommitted load,
// indexed by its LoadToken masked to a power of two no smaller than the
// RUU. Tokens are dynamic sequence numbers and a load's record lives
// only while the load is in the window, whose seqs span fewer than
// RUUSize consecutive values, so two live tokens never share a slot. A
// slot whose tag differs from the token holds a stale or empty record
// and reads as absent.
type issueTable struct {
	slots []issueInfo
	mask  uint64
}

func newIssueTable(ruuSize int) issueTable {
	n := pow2AtLeast(ruuSize)
	return issueTable{slots: make([]issueInfo, n), mask: uint64(n - 1)}
}

// get returns tok's record, or nil when tok has none.
//
//dsvet:hotpath
func (t *issueTable) get(tok ooo.LoadToken) *issueInfo {
	if s := &t.slots[uint64(tok)&t.mask]; s.tag == uint64(tok)+1 {
		return s
	}
	return nil
}

// put records tok's issue-time event.
//
//dsvet:hotpath
func (t *issueTable) put(tok ooo.LoadToken, info issueInfo) {
	info.tag = uint64(tok) + 1
	t.slots[uint64(tok)&t.mask] = info
}

// lineSlot is one lineTable entry; e == nil marks an empty slot.
type lineSlot struct {
	line uint64
	e    *missEntry
}

// lineTable maps line address to its open DCUB entry (the node's
// outstanding misses): open addressing with linear probing over a
// power-of-two slot array, deletion by backward shift so probe chains
// never need tombstones. Every entry is held by at least one in-flight
// load, so live entries never exceed the LSQ; the table starts at twice
// that and only grows (doubling) if half of it fills, which a valid
// configuration never reaches. It is never iterated, so slot order
// cannot leak into results.
type lineTable struct {
	slots []lineSlot
	shift uint // 64 - log2(len(slots))
	n     int
}

func newLineTable(maxLive int) lineTable {
	var t lineTable
	t.init(2 * pow2AtLeast(maxLive))
	return t
}

func (t *lineTable) init(size int) {
	t.slots = make([]lineSlot, size)
	t.shift = 64 - uint(bits.TrailingZeros(uint(size)))
	t.n = 0
}

// home is the line's first probe position (Fibonacci hashing).
func (t *lineTable) home(line uint64) int {
	return int((line * 0x9e3779b97f4a7c15) >> t.shift)
}

// len returns the number of outstanding lines.
func (t *lineTable) len() int { return t.n }

// get returns line's entry, or nil.
//
//dsvet:hotpath
func (t *lineTable) get(line uint64) *missEntry {
	mask := len(t.slots) - 1
	for i := t.home(line); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.e == nil || s.line == line {
			return s.e
		}
	}
}

// put inserts e for line, which must be absent.
//
//dsvet:hotpath
func (t *lineTable) put(line uint64, e *missEntry) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	i := t.home(line)
	for t.slots[i].e != nil {
		i = (i + 1) & mask
	}
	t.slots[i] = lineSlot{line: line, e: e}
	t.n++
}

// grow doubles the table (cold: see the type comment).
func (t *lineTable) grow() {
	old := t.slots
	t.init(2 * len(old))
	for _, s := range old {
		if s.e != nil {
			t.put(s.line, s.e)
		}
	}
}

// del removes line, which must be present, shifting later members of
// its probe run back so every remaining entry stays reachable from its
// home slot.
//
//dsvet:hotpath
func (t *lineTable) del(line uint64) {
	mask := len(t.slots) - 1
	i := t.home(line)
	for t.slots[i].line != line || t.slots[i].e == nil {
		i = (i + 1) & mask
	}
	for j := i; ; {
		t.slots[i] = lineSlot{}
		for {
			j = (j + 1) & mask
			s := t.slots[j]
			if s.e == nil {
				t.n--
				return
			}
			// s may fill the hole at i unless its home lies cyclically
			// in (i, j], where moving it would put it before its home.
			if h := t.home(s.line); (j-h)&mask >= (j-i)&mask {
				t.slots[i] = s
				i = j
				break
			}
		}
	}
}
