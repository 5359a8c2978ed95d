package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"testing"

	"github.com/wisc-arch/datascalar/internal/bus"
	"github.com/wisc-arch/datascalar/internal/core"
	"github.com/wisc-arch/datascalar/internal/fault"
	"github.com/wisc-arch/datascalar/internal/mem"
	"github.com/wisc-arch/datascalar/internal/prog"
	"github.com/wisc-arch/datascalar/internal/sim"
	"github.com/wisc-arch/datascalar/internal/traditional"
	"github.com/wisc-arch/datascalar/internal/workload"
)

// tinyBudget keeps every self-test run to milliseconds. Cascades need
// enough cycles for their third death to land and be detected.
const (
	tinyBudget    = 4_000
	cascadeBudget = 32_000
)

func mustWorkload(t *testing.T, name string) workloadDef {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func preparedBench(t *testing.T, name string, seed uint64, harnessDeal bool) *bench {
	t.Helper()
	budget := uint64(tinyBudget)
	if strings.HasPrefix(name, "cascade16") {
		budget = cascadeBudget
	}
	b, err := newBench(mustWorkload(t, name), seed, budget, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	b.harnessDeal = harnessDeal
	if err := b.prepare(); err != nil {
		t.Fatal(err)
	}
	if b.failed != 0 {
		t.Fatalf("%s: %d serial reference runs failed the oracle", name, b.failed)
	}
	return b
}

// runIndex builds and runs spec i of b the way a timed pass does, and
// requires the untouched run to pass the oracle.
func (b *bench) runIndex(t *testing.T, i int) *machine {
	t.Helper()
	spec := b.specs[i]
	p, ff, err := assemble(spec.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := b.partition(spec, p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := newMachine(spec, p, pt, ff, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.run(); err != nil {
		t.Fatal(err)
	}
	if err := check(m.outcome(), b.refs[i]); err != nil {
		t.Fatalf("%s: uncorrupted run failed the oracle: %v", spec.label(), err)
	}
	return m
}

func TestOracleCatchesCorruptRegister(t *testing.T) {
	for _, name := range []string{"fig7-ds", "fig7-trad", "cascade16-serial"} {
		b := preparedBench(t, name, 1, false)
		m := b.runIndex(t, 0)
		o := m.outcome()
		node := len(o.emus) - 1
		for o.emus[node] == nil {
			node--
		}
		em := o.emus[node]
		em.SetReg(5, em.Reg(5)^1)
		if err := check(m.outcome(), b.refs[0]); err == nil {
			t.Errorf("%s: oracle accepted a corrupted register on node %d", name, node)
		}
	}
}

func TestOracleCatchesCorruptCycles(t *testing.T) {
	for _, name := range []string{"fig7-ds", "fig7-trad", "mesh64"} {
		b := preparedBench(t, name, 1, false)
		m := b.runIndex(t, 0)
		m.dsRes.Cycles++
		m.tradRes.Cycles++
		if err := check(m.outcome(), b.refs[0]); err == nil {
			t.Errorf("%s: oracle accepted a corrupted cycle count", name)
		}
	}
}

func TestOracleCatchesUnrecoveredCascade(t *testing.T) {
	b := preparedBench(t, "cascade16-serial", 1, false)
	m := b.runIndex(t, 0)
	f := *m.dsRes.Fault
	f.Deaths = append([]fault.DeathStats(nil), f.Deaths...)
	f.Deaths[len(f.Deaths)-1].Detected = false
	m.dsRes.Fault = &f
	if err := check(m.outcome(), b.refs[0]); err == nil {
		t.Error("oracle accepted a cascade with an undetected death")
	}
}

// invoke runs the benchmark as the command line does, at a self-test
// budget, and returns its result line.
func invoke(t *testing.T, workload, seed, trace string) report {
	t.Helper()
	var out, errOut bytes.Buffer
	budget := tinyBudget
	if strings.HasPrefix(workload, "cascade16") {
		budget = cascadeBudget
	}
	args := []string{"-workload", workload, "-seed", seed, "-trace", trace,
		"-budget", fmt.Sprint(budget), "-seconds", "1", "-out", t.TempDir()}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("perfbench %v: exit %d\n%s", args, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("result %+v", r)
	}
	return r
}

func TestSeedReachesInputs(t *testing.T) {
	// fig7-trad shuffles the deal; mesh64 rotates it.
	for _, w := range []string{"fig7-trad", "mesh64"} {
		cycles := func(seed string) float64 {
			return invoke(t, w, seed, "0").Metrics["sim_cycles"].Value
		}
		a, b, c := cycles("1"), cycles("1"), cycles("2")
		if a != b {
			t.Errorf("%s: same seed, different sim_cycles: %v vs %v", w, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 give the same sim_cycles %v: the seed does not reach the inputs", w, a)
		}
	}
}

// TestRotationDeal checks that each mesh64 draw is the harness
// partition with every owner moved by the draw's rotation, and that the
// draws of one kernel take their rotations from disjoint shares of the
// ring.
func TestRotationDeal(t *testing.T) {
	specs, err := mustWorkload(t, "mesh64").runs(tinyBudget, 7)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := assemble(specs[0].Kernel)
	if err != nil {
		t.Fatal(err)
	}
	harness := specs[0]
	harness.Deal = dealHarness
	base, err := dealPages(p, harness, 7)
	if err != nil {
		t.Fatal(err)
	}
	for d, spec := range specs[:meshDraws] {
		if lo, hi := d*64/meshDraws, (d+1)*64/meshDraws; spec.Rotation < lo || spec.Rotation >= hi {
			t.Errorf("draw %d: rotation %d outside [%d, %d)", d, spec.Rotation, lo, hi)
		}
		pt, err := dealPages(p, spec, 7)
		if err != nil {
			t.Fatal(err)
		}
		for _, pg := range base.Pages() {
			addr := pg * prog.PageSize
			if base.IsReplicated(addr) != pt.IsReplicated(addr) {
				t.Fatalf("draw %d: page %#x replication differs", d, pg)
			}
			if !base.IsReplicated(addr) && pt.OwnerOf(addr) != (base.OwnerOf(addr)+spec.Rotation)%64 {
				t.Fatalf("draw %d: page %#x owned by %d, harness owner %d rotated by %d",
					d, pg, pt.OwnerOf(addr), base.OwnerOf(addr), spec.Rotation)
			}
		}
	}
}

// TestMatchesFigure7 shows the benchmark drives the same machines as
// the paper artifacts: with the harness's round-robin partition, every
// run reproduces sim.Figure7 at the same budget.
func TestMatchesFigure7(t *testing.T) {
	f7, err := sim.Figure7(context.Background(), sim.Options{TimingInstr: tinyBudget, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	ds := preparedBench(t, "fig7-ds", 1, true)
	trad := preparedBench(t, "fig7-trad", 1, true)
	for i, row := range f7.Rows {
		if ds.specs[2*i].Kernel != row.Benchmark {
			t.Fatalf("kernel order: %s vs %s", ds.specs[2*i].Kernel, row.Benchmark)
		}
		check := func(what string, got, want float64) {
			if got != want {
				t.Errorf("%s %s: benchmark %v, sim.Figure7 %v", row.Benchmark, what, got, want)
			}
		}
		check("DS2 cycles", float64(ds.refOut[2*i].ds.Cycles), float64(row.DS2Detail.Cycles))
		check("DS4 cycles", float64(ds.refOut[2*i+1].ds.Cycles), float64(row.DS4Detail.Cycles))
		check("trad 1/2 IPC", trad.refOut[3*i].trad.IPC, row.Trad2IPC)
		check("trad 1/4 IPC", trad.refOut[3*i+1].trad.IPC, row.Trad4IPC)
		check("perfect IPC", trad.refOut[3*i+2].trad.IPC, row.PerfectIPC)
	}
}

// TestPerfectMatchesRunPerfect pins the perfect-cache run, which the
// benchmark assembles from ooo.New so the oracle can reach its
// emulator, to traditional.RunPerfect.
func TestPerfectMatchesRunPerfect(t *testing.T) {
	b := preparedBench(t, "fig7-trad", 1, false)
	for i, spec := range b.specs {
		if spec.Kind != kindPerfect {
			continue
		}
		p, ff, err := assemble(spec.Kernel)
		if err != nil {
			t.Fatal(err)
		}
		want, err := traditional.RunPerfect(traditional.DefaultConfig(2).Core, p, spec.Instr, ff)
		if err != nil {
			t.Fatal(err)
		}
		wantJS, _ := json.Marshal(want)
		if gotJS, _ := b.refOut[i].statsJSON(); !bytes.Equal(gotJS, wantJS) {
			t.Errorf("%s: perfect run differs from traditional.RunPerfect", spec.Kernel)
		}
	}
}

// TestCascadeSeedsRecover checks that the seeded death schedules the
// benchmark draws are all survivable.
func TestCascadeSeedsRecover(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		b := preparedBench(t, "cascade16-serial", seed, false)
		b.runIndex(t, 0)
	}
}

// TestMetricNamesMatchContract runs both kinds of invocation on every
// workload and requires exactly the metric names BENCHMARK.json
// declares, with the per-package CPU shares summing to at most 1.
func TestMetricNamesMatchContract(t *testing.T) {
	js, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var contract struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(js, &contract); err != nil {
		t.Fatal(err)
	}
	for _, w := range contract.Workloads {
		for trace, want := range [][]struct{ Name, Unit string }{contract.EndToEnd, contract.PerLayer} {
			r := invoke(t, w.Name, "3", fmt.Sprint(trace))
			var got, wantNames []string
			for n := range r.Metrics {
				got = append(got, n)
			}
			for _, m := range want {
				wantNames = append(wantNames, m.Name)
				if u := r.Metrics[m.Name].Unit; u != m.Unit {
					t.Errorf("%s %s: unit %q, contract %q", w.Name, m.Name, u, m.Unit)
				}
			}
			sort.Strings(got)
			sort.Strings(wantNames)
			if strings.Join(got, " ") != strings.Join(wantNames, " ") {
				t.Errorf("%s trace %d: metrics\n%v\ncontract\n%v", w.Name, trace, got, wantNames)
			}
			if trace == 1 {
				var sum float64
				for _, l := range layers {
					sum += r.Metrics["cpu_share."+l].Value
				}
				if sum > 1+1e-9 {
					t.Errorf("%s: CPU shares sum to %v", w.Name, sum)
				}
			}
		}
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct{ fn, file, want string }{
		{"github.com/wisc-arch/datascalar/internal/ooo.(*Core).Cycle", "ooo.go", "ooo"},
		{"github.com/wisc-arch/datascalar/internal/core.(*node).IssueLoad", "/x/internal/core/node.go", "core.rest"},
		{"github.com/wisc-arch/datascalar/internal/core.(*BSHR).Arrive", "/x/internal/core/bshr.go", "core.bshr"},
		{"github.com/wisc-arch/datascalar/internal/core.(*Machine).runParallel.func1", "/x/internal/core/parallel.go", "core.parallel"},
		{"github.com/wisc-arch/datascalar/internal/workload.Workload.Program", "workload.go", "asm"},
		{"runtime.mallocgc", "malloc.go", "runtime"},
		{"internal/runtime/maps.(*Map).getWithKeySmall", "map.go", "runtime"},
		{"github.com/wisc-arch/datascalar/internal/isa.Decode", "isa.go", "other"},
		{"hash/crc32.ieeeCLMUL", "crc32.go", "other"},
	} {
		if got := layerOf(c.fn, c.file); got != c.want {
			t.Errorf("layerOf(%s) = %s, want %s", c.fn, got, c.want)
		}
	}
}

// TestKnownDefectCascadeParallel reproduces the second known failure:
// on some seeded death schedules cascade16 (two node workers) diverges
// from the serial run of the same inputs, so the oracle fails it and
// BENCHMARK.json measures cascade16-serial instead. Opt-in, like the
// test below.
func TestKnownDefectCascadeParallel(t *testing.T) {
	if os.Getenv("PERFBENCH_KNOWN_DEFECTS") == "" {
		t.Skip("known failure; set PERFBENCH_KNOWN_DEFECTS=1 to reproduce")
	}
	for _, seed := range []uint64{28, 56} {
		b, err := newBench(mustWorkload(t, "cascade16"), seed, 0, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.prepare(); err != nil {
			t.Fatal(err)
		}
		b.runIndex(t, 0)
	}
}

// TestKnownDefectDropDeathParallel reproduces the open serial/parallel
// divergence listed in README.md: a drop plan combined with a node death
// makes ParallelNodes=2 take a few more cycles than the serial loop,
// while architectural state still matches. It is opt-in
// (PERFBENCH_KNOWN_DEFECTS=1) and fails until the core is fixed.
func TestKnownDefectDropDeathParallel(t *testing.T) {
	if os.Getenv("PERFBENCH_KNOWN_DEFECTS") == "" {
		t.Skip("known failure; set PERFBENCH_KNOWN_DEFECTS=1 to reproduce")
	}
	w, _ := workload.ByName("compress")
	p, err := w.Program(1)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := mem.Partition{NumNodes: 16, BlockPages: 1, ReplicateText: true}.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	cycles := func(parallel int) uint64 {
		cfg := core.DefaultConfig(16)
		cfg.Topology.Kind = bus.TopoTorus
		cfg.MaxInstr = 150_000
		cfg.FastForwardPC = p.Labels["bench_main"]
		cfg.ParallelNodes = parallel
		cfg.Fault = fault.Config{Seed: 1, DropRate: 0.01, Recover: true,
			Deaths:             []fault.Death{{Node: 7, Cycle: 5_000}},
			RetryTimeoutCycles: 1_000, MaxRetries: 4}
		m, err := core.NewMachine(cfg, p, pt)
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r.Cycles
	}
	if s, par := cycles(1), cycles(2); s != par {
		t.Errorf("serial %d cycles, ParallelNodes=2 %d cycles", s, par)
	}
}
