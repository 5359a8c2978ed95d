package main

import (
	"fmt"
	"hash/fnv"

	"github.com/wisc-arch/datascalar/internal/bus"
	"github.com/wisc-arch/datascalar/internal/fault"
	"github.com/wisc-arch/datascalar/internal/mem"
	"github.com/wisc-arch/datascalar/internal/prog"
	"github.com/wisc-arch/datascalar/internal/sim"
	"github.com/wisc-arch/datascalar/internal/stats"
)

// machineKind selects which timing model a run drives.
type machineKind uint8

const (
	kindDS      machineKind = iota // core.NewMachine / Run
	kindTrad                       // traditional.NewMachine / Run
	kindPerfect                    // ooo core behind a perfect data cache
	numKinds
)

// runSpec is one machine run: the unit the oracle checks and the
// benchmark counts as one attempted operation.
type runSpec struct {
	Kernel   string
	Kind     machineKind
	Nodes    int // DS nodes or traditional chips; 1 for perfect
	Topology bus.TopologyKind
	Instr    uint64
	// Parallel is core.Config.ParallelNodes for the timed run; the
	// oracle's reference run is always serial.
	Parallel int
	// Deaths is the seeded death schedule (cascade16 only); those nodes
	// are excluded from the architectural-state check.
	Deaths []fault.Death
	// Deal is how the data pages go to the nodes, and Rotation the
	// offset of a dealRotate deal.
	Deal     deal
	Rotation int
	// Draw numbers the runs of a workload that differ only in their
	// seeded inputs; draw k is seeded with drawSeed(seed, k).
	Draw int
}

// drawSeed is the seed of a workload's k-th draw of inputs. Draw 0 is
// seeded with the workload seed itself.
func drawSeed(seed uint64, k int) uint64 {
	if k == 0 {
		return seed
	}
	return mixSeed(seed, "draw", k)
}

func (s runSpec) label() string {
	if s.Draw > 0 {
		return fmt.Sprintf("%s#%d", s.machineLabel(), s.Draw)
	}
	return s.machineLabel()
}

func (s runSpec) machineLabel() string {
	switch s.Kind {
	case kindDS:
		if s.Topology == bus.TopoBus {
			return fmt.Sprintf("%s/DS%d", s.Kernel, s.Nodes)
		}
		return fmt.Sprintf("%s/DS%d-%s", s.Kernel, s.Nodes, s.Topology)
	case kindTrad:
		return fmt.Sprintf("%s/trad1of%d", s.Kernel, s.Nodes)
	case kindPerfect:
		return s.Kernel + "/perfect"
	}
	panic(fmt.Sprintf("perfbench: unknown machine kind %d", s.Kind))
}

// cascadeDepth is the number of sequential deaths in a cascade run.
const cascadeDepth = 3

// cascadeBase is sim.CascadeScenarios' deepest scenario: its retry and
// recovery settings and the death schedule the seeded one jitters.
func cascadeBase() fault.Config {
	return sim.CascadeScenarios(cascadeDepth)[cascadeDepth-1].Base
}

// faultConfig is the run's fault plan: sim.CascadeScenarios' settings
// with the seeded schedule in place of its deaths, or none.
func (s runSpec) faultConfig() fault.Config {
	if len(s.Deaths) == 0 {
		return fault.Config{}
	}
	cfg := cascadeBase()
	cfg.Deaths = append([]fault.Death(nil), s.Deaths...)
	return cfg
}

// dead reports whether node is in the run's death schedule.
func (s runSpec) dead(node int) bool {
	for _, d := range s.Deaths {
		if d.Node == node {
			return true
		}
	}
	return false
}

// workloadDef is one named benchmark workload.
type workloadDef struct {
	Name string
	// Budget is the default instruction budget per run (before the
	// per-node scaling mesh64 applies). It is the budget the sim
	// harness the workload stands for runs at by default.
	Budget uint64
	specs  func(budget, seed uint64) ([]runSpec, error)
}

// The harnesses' default budgets: Figure 7 and sim.Scaling run at
// TimingInstr, fault campaigns (sim.FaultCampaign) at SweepInstr.
var (
	timingInstr = sim.DefaultOptions().TimingInstr
	sweepInstr  = sim.DefaultOptions().SweepInstr
)

// Host time per run depends on the seeded inputs, not only on the code:
// on the 64-node mesh, where the data pages land decides how many
// broadcast branches Mesh.DataPhase scans per stalled load, and in a
// cascade the deal and schedule decide how long the machine runs
// degraded. So mesh64 and the cascades run several draws of inputs from
// one seed per pass. mesh64 rotates the harness partition (dealRotate),
// under which host time spreads far less between seeds than under a
// shuffle, and draws each of its rotations from its own share of the
// offsets, so every pass covers the whole ring of nodes (README.md,
// "Workloads").
const (
	meshDraws    = 3
	cascadeDraws = 3
)

var timingKernels = []string{"applu", "compress", "go", "mgrid", "turb3d", "wave5"}

var workloads = []workloadDef{
	{Name: "fig7-ds", Budget: timingInstr, specs: func(budget, _ uint64) ([]runSpec, error) {
		var out []runSpec
		for _, k := range timingKernels {
			for _, n := range []int{2, 4} {
				out = append(out, runSpec{Kernel: k, Kind: kindDS, Nodes: n, Instr: budget})
			}
		}
		return out, nil
	}},
	{Name: "fig7-trad", Budget: timingInstr, specs: func(budget, _ uint64) ([]runSpec, error) {
		var out []runSpec
		for _, k := range timingKernels {
			out = append(out,
				runSpec{Kernel: k, Kind: kindTrad, Nodes: 2, Instr: budget},
				runSpec{Kernel: k, Kind: kindTrad, Nodes: 4, Instr: budget},
				runSpec{Kernel: k, Kind: kindPerfect, Nodes: 1, Instr: budget})
		}
		return out, nil
	}},
	{Name: "mesh64", Budget: timingInstr, specs: func(budget, seed uint64) ([]runSpec, error) {
		// sim.Scaling's per-node budget past 8 nodes: 8/N of the timing
		// budget, 37 500 instructions at the default.
		instr := budget * 8 / 64
		var out []runSpec
		for _, k := range []string{"compress", "mgrid"} {
			for d := 0; d < meshDraws; d++ {
				lo, hi := d*64/meshDraws, (d+1)*64/meshDraws
				rot := lo + int(mixSeed(seed, k, "rotation", d)%uint64(hi-lo))
				out = append(out, runSpec{Kernel: k, Kind: kindDS, Nodes: 64, Topology: bus.TopoMesh,
					Instr: instr, Parallel: 2, Deal: dealRotate, Rotation: rot, Draw: d})
			}
		}
		return out, nil
	}},
	{Name: "cascade16", Budget: sweepInstr, specs: func(budget, seed uint64) ([]runSpec, error) {
		return cascadeRuns(budget, seed, 2)
	}},
	// cascade16-serial is cascade16 on the serial node loop. cascade16
	// itself fails the oracle on some seeds (ParallelNodes=2 diverges
	// from serial after a death; see README.md, "Known failures"), so
	// BENCHMARK.json measures the fault layer here until that is fixed.
	{Name: "cascade16-serial", Budget: sweepInstr, specs: func(budget, seed uint64) ([]runSpec, error) {
		return cascadeRuns(budget, seed, 1)
	}},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("perfbench: unknown workload %q", name)
}

// runs returns the workload's runs at the given budget (0 = default).
func (w workloadDef) runs(budget, seed uint64) ([]runSpec, error) {
	if budget == 0 {
		budget = w.Budget
	}
	return w.specs(budget, seed)
}

// cascadeRuns is compress on a 16-node torus with three seeded deaths,
// once per draw.
func cascadeRuns(budget, seed uint64, parallel int) ([]runSpec, error) {
	const kernel, nodes = "compress", 16
	p, ff, err := assemble(kernel)
	if err != nil {
		return nil, err
	}
	var out []runSpec
	for d := 0; d < cascadeDraws; d++ {
		spec := runSpec{Kernel: kernel, Kind: kindDS, Nodes: nodes, Topology: bus.TopoTorus,
			Instr: budget, Parallel: parallel, Draw: d}
		s := drawSeed(seed, d)
		pt, err := dealPages(p, spec, s)
		if err != nil {
			return nil, err
		}
		if spec.Deaths, err = cascadeDeaths(p, ff, pt, budget, s); err != nil {
			return nil, err
		}
		out = append(out, spec)
	}
	return out, nil
}

// cascadeDeaths draws one distinct victim per death of cascadeBase's
// schedule, and its death cycle, from the seed. The fault layer detects a death only when a survivor waits
// on a line the dead node owns, so a victim that owns nothing the kernel
// reads after it dies is a death the machine never sees; victims are
// therefore drawn among the owners of pages the kernel loads in the
// second half of the measured window (a functional pre-pass over the
// dealt page table). The cycles are jittered around
// sim.CascadeScenarios' schedule (a first death at cycle 4000, then one
// every 8000): each death and each gap to the next one moves by up to
// 1000 cycles either way, keeping that schedule's premise that every
// death hits a machine that has already detected the previous one and
// remapped its pages.
func cascadeDeaths(p *prog.Program, ff uint64, pt *mem.PageTable, budget, seed uint64) ([]fault.Death, error) {
	const jitter = 1_000
	base := cascadeBase().Deaths
	k := len(base)
	em, err := fastForward(p, ff)
	if err != nil {
		return nil, err
	}
	late := map[int]bool{}
	for i := uint64(0); i < budget && !em.Halted(); i++ {
		d, err := em.Step()
		if err != nil {
			return nil, err
		}
		if i >= budget/2 && d.Instr.Op.IsLoad() && !pt.IsReplicated(d.EA) {
			late[pt.OwnerOf(d.EA)] = true
		}
	}
	var owners []int
	for n := 0; n < pt.NumNodes(); n++ {
		if late[n] {
			owners = append(owners, n)
		}
	}
	if len(owners) < k {
		return nil, fmt.Errorf("perfbench: only %d nodes own pages %s loads late, need %d victims", len(owners), p.Name, k)
	}
	rng := stats.NewRNG(mixSeed(seed, "cascade16"))
	perm := rng.Perm(len(owners))
	out := make([]fault.Death, k)
	var prev, cycle uint64
	for i := range out {
		cycle += base[i].Cycle - prev - jitter + rng.Uint64n(2*jitter)
		prev = base[i].Cycle
		out[i] = fault.Death{Node: owners[perm[i]], Cycle: cycle}
	}
	return out, nil
}

// mixSeed derives an independent stream per input so that, say, the
// DS2 and DS4 deals of one kernel are not the same permutation.
func mixSeed(seed uint64, parts ...any) uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, seed)
	for _, p := range parts {
		fmt.Fprint(h, "/", p)
	}
	return h.Sum64()
}

// deal is how a run's data pages are given to the nodes. Text is
// replicated at every node in all of them, as in the harnesses.
type deal uint8

const (
	// dealShuffle shuffles the data pages by the seed and then deals
	// them round-robin, so every node owns the same number of pages and
	// the seed decides which.
	dealShuffle deal = iota
	// dealRotate is the harness partition with every owner moved by the
	// run's seeded Rotation: pages stay in ascending order on consecutive
	// nodes, and the seed decides at which node the sequence starts.
	dealRotate
	// dealHarness is the harness partition itself (mem.Partition, one
	// page per node in ascending order), for the self-tests that compare
	// with the sim harnesses.
	dealHarness
)

// dealPages builds the page table for one run; seed is its draw's seed.
func dealPages(p *prog.Program, s runSpec, seed uint64) (*mem.PageTable, error) {
	harness := mem.Partition{NumNodes: s.Nodes, BlockPages: 1, ReplicateText: true}
	switch s.Deal {
	case dealHarness:
		return harness.Build(p)
	case dealRotate:
		pt, err := harness.Build(p)
		if err != nil {
			return nil, err
		}
		for _, pg := range pt.Pages() {
			if addr := pg * prog.PageSize; !pt.IsReplicated(addr) {
				pt.SetOwner(pg, (pt.OwnerOf(addr)+s.Rotation)%s.Nodes)
			}
		}
		return pt, nil
	}
	pt := mem.NewPageTable(s.Nodes)
	var data []uint64
	for _, pg := range p.Pages() {
		if prog.SegmentOf(pg*prog.PageSize) == prog.SegText {
			pt.SetReplicated(pg)
			continue
		}
		data = append(data, pg)
	}
	perm := stats.NewRNG(mixSeed(seed, s.Kernel, s.Nodes)).Perm(len(data))
	for i, j := range perm {
		pt.SetOwner(data[j], i%s.Nodes)
	}
	return pt, nil
}
