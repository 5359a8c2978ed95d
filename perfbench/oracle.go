package main

import (
	"bytes"
	"fmt"
	"hash/crc32"

	"github.com/wisc-arch/datascalar/internal/emu"
	"github.com/wisc-arch/datascalar/internal/isa"
	"github.com/wisc-arch/datascalar/internal/prog"
)

// archState is the architectural state the oracle compares between a
// timed machine's node and the functional emulator.
type archState struct {
	PC, Instr uint64
	Halted    bool
	Regs      [isa.NumIntRegs]uint64
	Pages     int    // resident emulator pages
	Digest    uint32 // CRC-32C of the program's data pages
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// dataPages lists the program's non-text pages: what the digest covers.
func dataPages(p *prog.Program) []uint64 {
	var out []uint64
	for _, pg := range p.Pages() {
		if prog.SegmentOf(pg*prog.PageSize) != prog.SegText {
			out = append(out, pg)
		}
	}
	return out
}

func captureState(em *emu.Machine, pages []uint64) archState {
	s := archState{PC: em.PC(), Instr: em.InstrCount(), Halted: em.Halted(), Pages: em.Mem().PageCount()}
	for r := range s.Regs {
		s.Regs[r] = em.Reg(uint8(r))
	}
	buf := make([]byte, prog.PageSize)
	for _, pg := range pages {
		em.Mem().ReadBytes(pg*prog.PageSize, buf)
		s.Digest = crc32.Update(s.Digest, castagnoli, buf)
	}
	return s
}

// fastForward loads p into a fresh emulator and runs it to ff, the
// kernel's bench_main label, exactly as the machines' constructors do.
func fastForward(p *prog.Program, ff uint64) (*emu.Machine, error) {
	em, err := emu.New(p)
	if err != nil {
		return nil, err
	}
	if _, ok, err := em.RunUntilPC(ff, 200_000_000); err != nil {
		return nil, fmt.Errorf("fast-forward: %w", err)
	} else if !ok {
		return nil, fmt.Errorf("fast-forward never reached pc 0x%x", ff)
	}
	return em, nil
}

// functionalState runs the functional emulator alone to the point a
// timed run with the given budget stops at: fast-forward, then instr
// more instructions.
func functionalState(p *prog.Program, ff, instr uint64) (archState, error) {
	em, err := fastForward(p, ff)
	if err != nil {
		return archState{}, err
	}
	if _, err := em.Run(instr); err != nil {
		return archState{}, err
	}
	return captureState(em, dataPages(p)), nil
}

// reference is what one run spec must reproduce: the functional
// emulator's state and the serial run's simulated statistics, both
// computed outside the timed loop.
type reference struct {
	state archState
	pages []uint64
	stats []byte
}

// check is the oracle. A run passes only if every surviving node's
// architectural state equals the functional emulator's, the DataScalar
// cache correspondence held, every CPI stack sums to the cycle count, a
// cascade ended with every scheduled death detected and the machine
// recovered, and the simulated statistics equal the serial reference's
// byte for byte.
func check(o outcome, ref reference) error {
	for node, em := range o.emus {
		if em == nil {
			continue
		}
		if got := captureState(em, ref.pages); got != ref.state {
			return fmt.Errorf("node %d: architectural state %+v, functional emulator %+v", node, got, ref.state)
		}
	}
	if o.ds != nil && !o.ds.CorrespondenceOK {
		return fmt.Errorf("cache correspondence violated")
	}
	for node, s := range o.stacks() {
		if s.Total() != o.cycles() {
			return fmt.Errorf("node %d: CPI stack sums to %d, run took %d cycles", node, s.Total(), o.cycles())
		}
	}
	if err := checkRecovered(o); err != nil {
		return err
	}
	js, err := o.statsJSON()
	if err != nil {
		return err
	}
	// ref.stats is nil only while the serial reference itself is checked.
	if ref.stats != nil && !bytes.Equal(js, ref.stats) {
		return fmt.Errorf("simulated statistics differ from the serial reference run")
	}
	return nil
}

// checkRecovered requires a run with a death schedule to have detected
// every death and finished degraded on exactly the survivors. A halted
// run never gets here: Run returns its fault report as an error.
func checkRecovered(o outcome) error {
	deaths := o.spec.Deaths
	if len(deaths) == 0 {
		return nil
	}
	f := o.ds.Fault
	if f == nil || len(f.Deaths) != len(deaths) {
		return fmt.Errorf("%d deaths scheduled, fault layer recorded %v", len(deaths), f)
	}
	for _, d := range f.Deaths {
		if !d.Detected {
			return fmt.Errorf("death of node %d at cycle %d never detected", d.Node, d.Cycle)
		}
	}
	if want := o.spec.Nodes - len(deaths); f.LiveNodes != want || !f.Degraded {
		return fmt.Errorf("run ended with %d live nodes (degraded=%v), want %d", f.LiveNodes, f.Degraded, want)
	}
	return nil
}
