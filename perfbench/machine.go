package main

import (
	"encoding/json"
	"fmt"

	"github.com/wisc-arch/datascalar/internal/core"
	"github.com/wisc-arch/datascalar/internal/emu"
	"github.com/wisc-arch/datascalar/internal/mem"
	"github.com/wisc-arch/datascalar/internal/obs"
	"github.com/wisc-arch/datascalar/internal/ooo"
	"github.com/wisc-arch/datascalar/internal/prog"
	"github.com/wisc-arch/datascalar/internal/traditional"
)

// sampleInterval is the sampling period of the observed runs behind
// obs.overhead_ratio (dsrun's -metrics-out default).
const sampleInterval = 10_000

// machine is one constructed machine of any kind, ready to run once.
// The benchmark times construction and run separately and builds the
// outcome afterwards, outside both.
type machine struct {
	spec runSpec
	p    *prog.Program

	ds   *core.Machine
	trad *traditional.Machine
	// The perfect-cache baseline is traditional.RunPerfect taken apart,
	// so that its emulator stays reachable for the oracle.
	perf    *ooo.Core
	perfEmu *emu.Machine

	dsRes   core.Result
	tradRes traditional.Result
}

// newMachine constructs spec's machine, fast-forwarded to ff. serial
// forces the serial node loop (the oracle's reference run); observer,
// when non-nil, is attached with interval sampling.
func newMachine(spec runSpec, p *prog.Program, pt *mem.PageTable, ff uint64, serial bool, observer obs.Observer) (*machine, error) {
	m := &machine{spec: spec, p: p}
	var err error
	switch spec.Kind {
	case kindDS:
		cfg := core.DefaultConfig(spec.Nodes)
		cfg.Topology.Kind = spec.Topology
		cfg.MaxInstr = spec.Instr
		cfg.FastForwardPC = ff
		cfg.Fault = spec.faultConfig()
		if !serial {
			cfg.ParallelNodes = spec.Parallel
		}
		if observer != nil {
			cfg.Observer = observer
			cfg.SampleInterval = sampleInterval
		}
		m.ds, err = core.NewMachine(cfg, p, pt)
	case kindTrad:
		cfg := traditional.DefaultConfig(spec.Nodes)
		cfg.Topology.Kind = spec.Topology
		cfg.MaxInstr = spec.Instr
		cfg.FastForwardPC = ff
		cfg.Observer = observer
		m.trad, err = traditional.NewMachine(cfg, p, pt)
	case kindPerfect:
		m.perfEmu, err = fastForward(p, ff)
		if err == nil {
			m.perf = ooo.New(traditional.DefaultConfig(2).Core, ooo.NewEmuSource(m.perfEmu, spec.Instr), ooo.PerfectMem{})
		}
	default:
		err = fmt.Errorf("unknown machine kind %d", spec.Kind)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.label(), err)
	}
	return m, nil
}

// run simulates the machine to its budget. It is the timed call.
func (m *machine) run() error {
	var err error
	switch m.spec.Kind {
	case kindDS:
		m.dsRes, err = m.ds.Run()
	case kindTrad:
		m.tradRes, err = m.trad.Run()
	case kindPerfect:
		var cycles uint64
		cycles, err = ooo.Run(m.perf, 0)
		r := traditional.Result{Cycles: cycles, Instructions: m.perf.Committed(),
			Core: *m.perf.Stats(), CPIStack: *m.perf.CPIStack()}
		if cycles > 0 {
			r.IPC = float64(r.Instructions) / float64(cycles)
		}
		m.tradRes = r
	}
	if err != nil {
		return fmt.Errorf("%s: %w", m.spec.label(), err)
	}
	return nil
}

// outcome is what the oracle checks and the metrics count: the run's
// simulated result plus the architectural state of its surviving nodes.
type outcome struct {
	spec runSpec
	ds   *core.Result        // kindDS
	trad *traditional.Result // kindTrad and kindPerfect
	// emus holds every surviving node's emulator, indexed by node (nil
	// for a scheduled victim).
	emus []*emu.Machine
}

func (m *machine) outcome() outcome {
	o := outcome{spec: m.spec}
	switch m.spec.Kind {
	case kindDS:
		r := m.dsRes
		o.ds = &r
		for i := 0; i < m.spec.Nodes; i++ {
			var em *emu.Machine
			if !m.spec.dead(i) {
				em = m.ds.NodeEmu(i)
			}
			o.emus = append(o.emus, em)
		}
	case kindTrad:
		r := m.tradRes
		o.trad = &r
		o.emus = []*emu.Machine{m.trad.Emu()}
	case kindPerfect:
		r := m.tradRes
		o.trad = &r
		o.emus = []*emu.Machine{m.perfEmu}
	}
	return o
}

func (o outcome) cycles() uint64 {
	if o.ds != nil {
		return o.ds.Cycles
	}
	return o.trad.Cycles
}

// nodeInstr is the run's committed instructions summed over its nodes.
func (o outcome) nodeInstr() uint64 {
	if o.trad != nil {
		return o.trad.Instructions
	}
	var n uint64
	for _, c := range o.ds.Core {
		n += c.Committed
	}
	return n
}

func (o outcome) stacks() []obs.CPIStack {
	if o.ds != nil {
		return o.ds.CPIStacks
	}
	return []obs.CPIStack{o.trad.CPIStack}
}

func (o outcome) cores() []ooo.Stats {
	if o.ds != nil {
		return o.ds.Core
	}
	return []ooo.Stats{o.trad.Core}
}

// statsJSON is the run's full simulated result, the form in which the
// oracle compares it with the serial reference.
func (o outcome) statsJSON() ([]byte, error) {
	if o.ds != nil {
		return json.Marshal(o.ds)
	}
	return json.Marshal(o.trad)
}
