package core

import (
	"testing"

	"github.com/wisc-arch/datascalar/internal/ooo"
	"github.com/wisc-arch/datascalar/internal/stats"
)

// TestLineTableMatchesMap drives the DCUB slot table and a map through
// the same seeded inserts, lookups and deletions. Lines come from a
// small pool so probe runs collide, wrap around the slot array and get
// shifted back by deletions; the table starts at its smallest size so
// growth is exercised too.
func TestLineTableMatchesMap(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		rng := stats.NewRNG(seed)
		tab := newLineTable(1)
		ref := map[uint64]*missEntry{}
		var live []uint64
		for step := 0; step < 50_000; step++ {
			line := uint64(rng.Intn(96)) * 64
			switch {
			case rng.Intn(3) == 0 && len(live) > 0:
				k := rng.Intn(len(live))
				line = live[k]
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
				tab.del(line)
				delete(ref, line)
			case ref[line] == nil && len(live) < 40:
				e := &missEntry{line: line}
				tab.put(line, e)
				ref[line] = e
				live = append(live, line)
			}
			if got := tab.get(line); got != ref[line] {
				t.Fatalf("seed %d step %d: get(0x%x) = %p, map %p", seed, step, line, got, ref[line])
			}
			if tab.len() != len(ref) {
				t.Fatalf("seed %d step %d: len %d, map %d", seed, step, tab.len(), len(ref))
			}
		}
		for _, line := range live {
			if tab.get(line) != ref[line] {
				t.Fatalf("seed %d: live line 0x%x lost", seed, line)
			}
		}
	}
}

// TestIssueTableWindow: tokens of one window (fewer than RUUSize
// consecutive seqs) never collide, and a slot reused by a later token
// reads as absent for the earlier one.
func TestIssueTableWindow(t *testing.T) {
	tab := newIssueTable(48) // rounds up to 64 slots
	for tok := ooo.LoadToken(100); tok < 148; tok++ {
		tab.put(tok, issueInfo{hit: tok%2 == 0})
	}
	for tok := ooo.LoadToken(100); tok < 148; tok++ {
		if info := tab.get(tok); info == nil || info.hit != (tok%2 == 0) {
			t.Fatalf("token %d: %+v", tok, info)
		}
	}
	if tab.get(99) != nil || tab.get(148) != nil {
		t.Fatal("a token never issued reads as present")
	}
	tab.put(164, issueInfo{}) // same slot as 100
	if tab.get(100) != nil || tab.get(164) == nil {
		t.Fatal("slot reuse: the stale token still reads as present")
	}
}
