package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"time"

	"github.com/wisc-arch/datascalar/internal/emu"
	"github.com/wisc-arch/datascalar/internal/mem"
	"github.com/wisc-arch/datascalar/internal/obs"
	"github.com/wisc-arch/datascalar/internal/prog"
	"github.com/wisc-arch/datascalar/internal/workload"
)

// bench drives one workload at one seed. Every pass builds every run of
// the workload from source (assembly, partition, construction with
// fast-forward), runs it, and checks it against the oracle.
type bench struct {
	w           workloadDef
	seed        uint64
	harnessDeal bool // the harness partition instead of each run's seeded deal
	specs       []runSpec
	refs        []reference // per spec, from prepare
	refOut      []outcome   // the serial reference runs, for the counts
	// tr is nil on untraced passes. With it set, passes record spans,
	// label the run calls for the CPU profile and count allocations; ctx
	// then carries the pass's own profile label.
	tr  *tracer
	ctx context.Context
	log io.Writer

	attempted, failed int
}

func newBench(w workloadDef, seed, budget uint64, log io.Writer) (*bench, error) {
	specs, err := w.runs(budget, seed)
	if err != nil {
		return nil, err
	}
	return &bench{w: w, seed: seed, specs: specs, log: log}, nil
}

// passMode selects a pass variant.
type passMode struct {
	serial  bool // force the serial node loop (core.parallel_speedup)
	observe bool // attach an obs.Metrics observer (obs.overhead_ratio)
}

// passStats is what one pass measured.
type passStats struct {
	asm, partition time.Duration
	newByKind      [numKinds]time.Duration
	runByKind      [numKinds]time.Duration
	instrByKind    [numKinds]uint64 // committed instructions × nodes
	allocsByKind   [numKinds]uint64 // traced passes only
	runsByKind     [numKinds]int
	perRun         []time.Duration // each run call, in spec order
	cycles         uint64
	ff, ref        time.Duration // functional reference, traced only
	refInstr       uint64
	gcCycles       uint32 // traced only
}

func (ps passStats) setup() time.Duration {
	d := ps.asm + ps.partition
	for _, n := range ps.newByKind {
		d += n
	}
	return d
}

func (ps passStats) run() time.Duration {
	var d time.Duration
	for _, r := range ps.runByKind {
		d += r
	}
	return d
}

func (ps passStats) nodeInstr() uint64 {
	var n uint64
	for _, i := range ps.instrByKind {
		n += i
	}
	return n
}

// timed runs fn inside a span and returns its wall-clock duration.
func (b *bench) timed(name string, fn func() error) (time.Duration, error) {
	sp := b.tr.begin(name)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	b.tr.end(sp)
	return d, err
}

// labelled runs fn under a CPU-profile label on traced passes, so the
// profile can be folded over the run calls alone.
func (b *bench) labelled(phase string, fn func()) {
	if b.tr == nil {
		fn()
		return
	}
	// Do restores b.ctx's labels when fn returns, so the rest of the
	// pass stays labelled as the pass.
	pprof.Do(b.ctx, pprof.Labels("phase", phase), func(context.Context) { fn() })
}

func (b *bench) mallocs() uint64 {
	if b.tr == nil {
		return 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func (b *bench) fail(label string, err error) {
	b.failed++
	fmt.Fprintf(b.log, "perfbench: FAIL %s: %v\n", label, err)
}

// assemble builds a kernel's program and locates its fast-forward point.
func assemble(kernel string) (*prog.Program, uint64, error) {
	w, ok := workload.ByName(kernel)
	if !ok {
		return nil, 0, fmt.Errorf("perfbench: unknown kernel %q", kernel)
	}
	p, err := w.Program(1)
	if err != nil {
		return nil, 0, err
	}
	ff, ok := p.Labels["bench_main"]
	if !ok {
		return nil, 0, fmt.Errorf("perfbench: kernel %s lacks a bench_main label", kernel)
	}
	return p, ff, nil
}

// prepare computes every spec's reference outside the timed loop: the
// functional emulator's state at the run's stopping point, then a serial
// run of the same inputs, which must itself pass the oracle (against the
// functional state) and whose statistics every timed run must equal.
func (b *bench) prepare() error {
	b.refs = make([]reference, len(b.specs))
	b.refOut = make([]outcome, len(b.specs))
	for i, spec := range b.specs {
		p, ff, err := assemble(spec.Kernel)
		if err != nil {
			return err
		}
		state, err := functionalState(p, ff, spec.Instr)
		if err != nil {
			return fmt.Errorf("%s: functional reference: %w", spec.label(), err)
		}
		ref := reference{state: state, pages: dataPages(p)}
		b.attempted++
		o, err := b.serialRun(spec, p, ff)
		if err == nil {
			err = check(o, ref)
		}
		if err != nil {
			b.fail(spec.label()+" (serial reference)", err)
			return fmt.Errorf("%s: the serial reference run failed the oracle: %w", spec.label(), err)
		}
		if ref.stats, err = o.statsJSON(); err != nil {
			return err
		}
		o.emus = nil // only the counts are kept; let the emulators go
		b.refs[i], b.refOut[i] = ref, o
	}
	return nil
}

func (b *bench) serialRun(spec runSpec, p *prog.Program, ff uint64) (outcome, error) {
	pt, err := b.partition(spec, p)
	if err != nil {
		return outcome{}, err
	}
	m, err := newMachine(spec, p, pt, ff, true, nil)
	if err != nil {
		return outcome{}, err
	}
	if err := m.run(); err != nil {
		return outcome{}, err
	}
	return m.outcome(), nil
}

func (b *bench) partition(spec runSpec, p *prog.Program) (*mem.PageTable, error) {
	if spec.Kind == kindPerfect {
		return nil, nil
	}
	if b.harnessDeal {
		spec.Deal = dealHarness
	}
	return dealPages(p, spec, drawSeed(b.seed, spec.Draw))
}

// pass runs every spec once from source, timing each layer's calls, and
// checks each run. Only setup errors abort; a run that errors or fails
// the oracle is counted and the pass goes on.
func (b *bench) pass(mode passMode) (passStats, error) {
	var ps passStats
	passSpan := b.tr.begin("pass")
	defer b.tr.end(passSpan)
	var gcStart uint32
	if b.tr != nil {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		gcStart = ms.NumGC
	}
	var (
		p      *prog.Program
		ff     uint64
		kernel string
	)
	for i, spec := range b.specs {
		if spec.Kernel != kernel {
			kernel = spec.Kernel
			d, err := b.timed("asm.assemble", func() (err error) {
				p, ff, err = assemble(kernel)
				return err
			})
			if err != nil {
				return ps, err
			}
			ps.asm += d
			if b.tr != nil {
				if err := b.functionalPass(&ps, p, ff, spec); err != nil {
					return ps, err
				}
			}
		}
		if err := b.runOne(&ps, mode, spec, b.refs[i], p, ff); err != nil {
			return ps, err
		}
	}
	if b.tr != nil {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		ps.gcCycles = ms.NumGC - gcStart
	}
	return ps, nil
}

// functionalPass times the oracle's functional reference for a kernel on
// traced passes (emu.fastforward_s, emu.ref_mips) and re-checks it.
func (b *bench) functionalPass(ps *passStats, p *prog.Program, ff uint64, spec runSpec) error {
	sp := b.tr.begin("emu.reference")
	defer b.tr.end(sp)
	var em *emu.Machine
	d, err := b.timed("emu.fastforward", func() (err error) {
		em, err = fastForward(p, ff)
		return err
	})
	if err != nil {
		return err
	}
	ps.ff += d
	var n uint64
	d, err = b.timed("emu.run", func() (err error) {
		n, err = em.Run(spec.Instr)
		return err
	})
	if err != nil {
		return err
	}
	ps.ref += d
	ps.refInstr += n
	return nil
}

func (b *bench) runOne(ps *passStats, mode passMode, spec runSpec, ref reference, p *prog.Program, ff uint64) error {
	label := spec.label()
	sp := b.tr.begin(label)
	defer b.tr.end(sp)
	var pt *mem.PageTable
	if spec.Kind != kindPerfect {
		d, err := b.timed("mem.partition", func() (err error) {
			pt, err = b.partition(spec, p)
			return err
		})
		if err != nil {
			return err
		}
		ps.partition += d
	}
	var observer obs.Observer
	if mode.observe && spec.Kind == kindDS {
		observer = obs.NewMetrics(sampleInterval)
	}
	var m *machine
	d, err := b.timed(newSpanName[spec.Kind], func() (err error) {
		m, err = newMachine(spec, p, pt, ff, mode.serial, observer)
		return err
	})
	if err != nil {
		return err
	}
	ps.newByKind[spec.Kind] += d

	b.attempted++
	allocs := b.mallocs()
	b.labelled("run", func() { d, err = b.timed(runSpanName[spec.Kind], m.run) })
	ps.allocsByKind[spec.Kind] += b.mallocs() - allocs
	ps.runByKind[spec.Kind] += d
	ps.runsByKind[spec.Kind]++
	ps.perRun = append(ps.perRun, d)
	if err != nil {
		b.fail(label, err)
		return nil
	}
	o := m.outcome()
	ps.instrByKind[spec.Kind] += o.nodeInstr()
	ps.cycles += o.cycles()
	if _, err := b.timed("oracle", func() error { return check(o, ref) }); err != nil {
		b.fail(label, err)
	}
	return nil
}

var (
	newSpanName = [numKinds]string{kindDS: "core.NewMachine", kindTrad: "traditional.NewMachine", kindPerfect: "ooo.New"}
	runSpanName = [numKinds]string{kindDS: "core.Run", kindTrad: "traditional.Run", kindPerfect: "ooo.Run"}
)
