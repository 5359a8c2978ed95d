package bus

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"github.com/wisc-arch/datascalar/internal/stats"
)

// linkTimingDigest drives n through seeded mixed traffic — every message
// kind, bursts, quiet stretches and source purges — then drains it, and
// returns an FNV-64a digest of every (cycle, node, seq) arrival, the
// pending count after each cycle, each purge's count, the final
// BusyCycles and the drain cycle.
func linkTimingDigest(n Network, nodes int, seed uint64) (uint64, uint64) {
	const traffic = 2000
	lines := []uint64{0x1000, 0x1020, 0x1040, 0x2000, 0x2020}
	rng := stats.NewRNG(seed)
	h := fnv.New64a()
	put := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	seq := uint64(0)
	now := uint64(0)
	for ; now < traffic || n.Pending() > 0; now++ {
		if now > 1_000_000 {
			panic("link engine never drained")
		}
		for _, a := range n.Tick(now) {
			put(now, uint64(a.Node), a.Msg.Seq)
		}
		put(uint64(n.Pending()))
		if now >= traffic {
			continue
		}
		burst := 0
		if rng.Intn(4) == 0 {
			burst = rng.Intn(4)
		}
		for k := 0; k < burst; k++ {
			m := randomMessage(rng, nodes, now, lines)
			m.Seq = seq
			seq++
			n.Enqueue(m)
		}
		if rng.Intn(150) == 0 {
			put(uint64(n.PurgeSource(rng.Intn(nodes))))
		}
	}
	put(n.NetStats().BusyCycles.Value(), now)
	return h.Sum64(), now
}

// TestLinkTimingGolden pins the link engines' timing — which node hears
// which message in which cycle, link occupancy, and when the network
// drains — to digests taken before the ring and the mesh/torus were
// merged into one engine. Any change to arbitration order, routing,
// hop timing or purge semantics moves a digest.
func TestLinkTimingGolden(t *testing.T) {
	cases := []struct {
		name   string
		nodes  int
		build  func() Network
		digest [2]uint64
		drain  [2]uint64
	}{
		{"ring8", 8, func() Network { return NewRing(DefaultLinkConfig(), 8) },
			[2]uint64{0xd04e915cdc5e3878, 0xd1f20999ce1ab8c9}, [2]uint64{3766, 3637}},
		{"mesh12", 12, func() Network { return NewMesh(DefaultLinkConfig(), 12) },
			[2]uint64{0x2dff09793fd84116, 0x1bc6c29174354bcf}, [2]uint64{3195, 3185}},
		{"torus16", 16, func() Network { return NewTorus(DefaultLinkConfig(), 16) },
			[2]uint64{0xa9feb2ea96aeb6c6, 0x84667a3fb134f7a7}, [2]uint64{2470, 2387}},
	}
	for _, c := range cases {
		for i, seed := range []uint64{1, 2} {
			t.Run(fmt.Sprintf("%s/seed%d", c.name, seed), func(t *testing.T) {
				digest, drain := linkTimingDigest(c.build(), c.nodes, seed)
				if digest != c.digest[i] || drain != c.drain[i] {
					t.Fatalf("digest %#x drained at %d, want %#x at %d",
						digest, drain, c.digest[i], c.drain[i])
				}
			})
		}
	}
}
