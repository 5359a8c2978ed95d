// Package emu implements the functional emulator: it executes programs
// architecturally and hands the resulting dynamic instruction stream to the
// timing models.
//
// This is the same functional/timing split SimpleScalar used (and the paper
// inherited): the emulator is the oracle for *what* executes — including
// every effective address — while the timing models (internal/ooo,
// internal/core, internal/traditional) decide *when* things happen and
// where data physically lives. Every DataScalar node runs its own emulator
// instance over the same program, which is exactly the paper's redundant
// SPSD execution.
package emu

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/wisc-arch/datascalar/internal/isa"
	"github.com/wisc-arch/datascalar/internal/prog"
)

// Dyn is one executed (committed-path) dynamic instruction. The timing
// models consume a stream of these. Because the paper assumes perfect
// branch prediction, the committed path is also the fetched path.
type Dyn struct {
	Seq    uint64 // dynamic instruction number, starting at 0
	PC     uint64
	Instr  isa.Instr
	EA     uint64 // effective address when Instr is a memory op (or PRIVB)
	NextPC uint64
	Taken  bool // conditional branch outcome
	// Private marks instructions inside a PRIVB/PRIVE result-communication
	// region (paper Section 5.1); the markers themselves are not Private.
	Private bool
}

// Machine is the architectural state of one emulated processor.
type Machine struct {
	prog *prog.Program
	// text mirrors prog.Text so the Step fetch path is one bounds check
	// and an indexed load, with no pointer chase through prog.
	text   []isa.Instr
	r      [isa.NumIntRegs]uint64
	f      [isa.NumFPRegs]float64
	pc     uint64
	mem    *Memory
	halted bool
	icount uint64
	// privDepth tracks open PRIVB/PRIVE result-communication regions.
	privDepth int
}

// New creates a machine with the program loaded: text mapped, data copied
// to DataBase, SP at the top of the stack, GP at DataBase.
func New(p *prog.Program) (*Machine, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{
		prog: p,
		text: p.Text,
		pc:   p.EntryPC(),
		mem:  NewMemory(),
	}
	m.mem.WriteBytes(prog.DataBase, p.Data)
	m.r[isa.RegSP] = prog.StackTop - 16
	m.r[isa.RegGP] = prog.DataBase
	return m, nil
}

// Clone returns an independent deep copy of the machine: registers,
// PC, counters, and a page-by-page copy of memory, with the immutable
// program and predecoded text shared. Machines that fast-forward
// through the same initialization (every node of a DataScalar machine
// does) clone one fast-forwarded master instead of re-running up to
// hundreds of millions of warmup instructions per node — the change
// that makes N=256 machines constructible in reasonable wall-clock.
func (m *Machine) Clone() *Machine {
	c := *m
	c.mem = m.mem.Clone()
	return &c
}

// Program returns the loaded program.
func (m *Machine) Program() *prog.Program { return m.prog }

// Mem returns the machine's functional memory, usable by workload setup
// code and result checks.
func (m *Machine) Mem() *Memory { return m.mem }

// PC returns the current program counter.
func (m *Machine) PC() uint64 { return m.pc }

// Halted reports whether the machine has executed HALT.
func (m *Machine) Halted() bool { return m.halted }

// InstrCount returns the number of instructions executed so far.
func (m *Machine) InstrCount() uint64 { return m.icount }

// Reg returns integer register n.
func (m *Machine) Reg(n uint8) uint64 { return m.r[n] }

// SetReg sets integer register n (writes to r0 are ignored).
func (m *Machine) SetReg(n uint8, v uint64) {
	if n != isa.RegZero {
		m.r[n] = v
	}
}

// FReg returns floating-point register n.
func (m *Machine) FReg(n uint8) float64 { return m.f[n] }

// SetFReg sets floating-point register n.
func (m *Machine) SetFReg(n uint8, v float64) { m.f[n] = v }

// Step executes one instruction and returns its dynamic record.
// Calling Step on a halted machine returns ErrHalted.
//
// Step is allocation-free in steady state (TestStepZeroAllocs);
// dsvet:hotpath keeps it that way statically.
//
//dsvet:hotpath
func (m *Machine) Step() (Dyn, error) {
	if m.halted {
		return Dyn{}, ErrHalted
	}
	// Fast fetch: text occupies [TextBase, TextBase+len*InstrBytes) and
	// TextBase is InstrBytes-aligned, so an in-range aligned PC maps to
	// index (pc-TextBase)/InstrBytes directly. Anything else falls back to
	// PCToIndex, which produces the exact diagnostic it always has.
	var in isa.Instr
	if off := m.pc - prog.TextBase; m.pc >= prog.TextBase &&
		m.pc%isa.InstrBytes == 0 && off/isa.InstrBytes < uint64(len(m.text)) {
		in = m.text[off/isa.InstrBytes]
	} else {
		idx, err := m.prog.PCToIndex(m.pc)
		if err != nil {
			//dsvet:ok hotpath-alloc fetch fault ends the run; allocates at most once
			return Dyn{}, fmt.Errorf("emu: fetch: %w", err)
		}
		in = m.prog.Text[idx]
	}
	d := Dyn{Seq: m.icount, PC: m.pc, Instr: in, NextPC: m.pc + isa.InstrBytes,
		Private: m.privDepth > 0 && in.Op != isa.OpPRIVE}

	if err := m.execute(in, &d); err != nil {
		//dsvet:ok hotpath-alloc execution fault ends the run; allocates at most once
		return Dyn{}, fmt.Errorf("emu: pc 0x%x (%s): %w", m.pc, in, err)
	}
	m.pc = d.NextPC
	m.icount++
	return d, nil
}

// ErrHalted is returned by Step once the program has executed HALT.
var ErrHalted = fmt.Errorf("emu: machine halted")

// Run executes until HALT or until maxInstr instructions have executed
// (0 means no limit). It returns the number of instructions executed.
func (m *Machine) Run(maxInstr uint64) (uint64, error) {
	start := m.icount
	for !m.halted {
		if maxInstr != 0 && m.icount-start >= maxInstr {
			break
		}
		if _, err := m.Step(); err != nil {
			return m.icount - start, err
		}
	}
	return m.icount - start, nil
}

// RunUntilPC executes until the machine is about to fetch pc (i.e. pc is
// the next instruction), until HALT, or until maxInstr instructions have
// run (0 = no limit). It returns the number of instructions executed and
// whether pc was reached. Timing harnesses use it to fast-forward past a
// kernel's initialization phase before attaching the timing model.
func (m *Machine) RunUntilPC(pc uint64, maxInstr uint64) (uint64, bool, error) {
	start := m.icount
	for !m.halted && m.pc != pc {
		if maxInstr != 0 && m.icount-start >= maxInstr {
			return m.icount - start, false, nil
		}
		if _, err := m.Step(); err != nil {
			return m.icount - start, false, err
		}
	}
	return m.icount - start, m.pc == pc, nil
}

func (m *Machine) execute(in isa.Instr, d *Dyn) error {
	r := &m.r
	f := &m.f
	switch in.Op {
	// Integer register-register.
	case isa.OpADD:
		m.SetReg(in.Rd, r[in.Rs1]+r[in.Rs2])
	case isa.OpSUB:
		m.SetReg(in.Rd, r[in.Rs1]-r[in.Rs2])
	case isa.OpMUL:
		m.SetReg(in.Rd, r[in.Rs1]*r[in.Rs2])
	case isa.OpDIV:
		if r[in.Rs2] == 0 {
			// RISC-V semantics: no trap, quotient is all ones.
			m.SetReg(in.Rd, ^uint64(0))
		} else {
			m.SetReg(in.Rd, uint64(int64(r[in.Rs1])/int64(r[in.Rs2])))
		}
	case isa.OpREM:
		if r[in.Rs2] == 0 {
			m.SetReg(in.Rd, r[in.Rs1])
		} else {
			m.SetReg(in.Rd, uint64(int64(r[in.Rs1])%int64(r[in.Rs2])))
		}
	case isa.OpAND:
		m.SetReg(in.Rd, r[in.Rs1]&r[in.Rs2])
	case isa.OpOR:
		m.SetReg(in.Rd, r[in.Rs1]|r[in.Rs2])
	case isa.OpXOR:
		m.SetReg(in.Rd, r[in.Rs1]^r[in.Rs2])
	case isa.OpNOR:
		m.SetReg(in.Rd, ^(r[in.Rs1] | r[in.Rs2]))
	case isa.OpSLL:
		m.SetReg(in.Rd, r[in.Rs1]<<(r[in.Rs2]&63))
	case isa.OpSRL:
		m.SetReg(in.Rd, r[in.Rs1]>>(r[in.Rs2]&63))
	case isa.OpSRA:
		m.SetReg(in.Rd, uint64(int64(r[in.Rs1])>>(r[in.Rs2]&63)))
	case isa.OpSLT:
		m.SetReg(in.Rd, boolTo64(int64(r[in.Rs1]) < int64(r[in.Rs2])))
	case isa.OpSLTU:
		m.SetReg(in.Rd, boolTo64(r[in.Rs1] < r[in.Rs2]))

	// Integer register-immediate.
	case isa.OpADDI:
		m.SetReg(in.Rd, r[in.Rs1]+uint64(in.Imm))
	case isa.OpANDI:
		m.SetReg(in.Rd, r[in.Rs1]&uint64(in.Imm))
	case isa.OpORI:
		m.SetReg(in.Rd, r[in.Rs1]|uint64(in.Imm))
	case isa.OpXORI:
		m.SetReg(in.Rd, r[in.Rs1]^uint64(in.Imm))
	case isa.OpSLLI:
		m.SetReg(in.Rd, r[in.Rs1]<<(uint64(in.Imm)&63))
	case isa.OpSRLI:
		m.SetReg(in.Rd, r[in.Rs1]>>(uint64(in.Imm)&63))
	case isa.OpSRAI:
		m.SetReg(in.Rd, uint64(int64(r[in.Rs1])>>(uint64(in.Imm)&63)))
	case isa.OpSLTI:
		m.SetReg(in.Rd, boolTo64(int64(r[in.Rs1]) < in.Imm))
	case isa.OpLI:
		m.SetReg(in.Rd, uint64(in.Imm))

	// Memory.
	case isa.OpLB, isa.OpLBU, isa.OpLW, isa.OpLWU, isa.OpLD, isa.OpFLD:
		ea := r[in.Rs1] + uint64(in.Imm)
		d.EA = ea
		if err := checkAlign(ea, in.Op.MemBytes()); err != nil {
			return err
		}
		switch in.Op {
		case isa.OpLB:
			m.SetReg(in.Rd, uint64(int64(int8(m.mem.Read8(ea)))))
		case isa.OpLBU:
			m.SetReg(in.Rd, uint64(m.mem.Read8(ea)))
		case isa.OpLW:
			m.SetReg(in.Rd, uint64(int64(int32(m.mem.Read32(ea)))))
		case isa.OpLWU:
			m.SetReg(in.Rd, uint64(m.mem.Read32(ea)))
		case isa.OpLD:
			m.SetReg(in.Rd, m.mem.Read64(ea))
		case isa.OpFLD:
			f[in.Rd] = math.Float64frombits(m.mem.Read64(ea))
		}
	case isa.OpSB, isa.OpSW, isa.OpSD, isa.OpFSD:
		ea := r[in.Rs1] + uint64(in.Imm)
		d.EA = ea
		if err := checkAlign(ea, in.Op.MemBytes()); err != nil {
			return err
		}
		switch in.Op {
		case isa.OpSB:
			m.mem.Write8(ea, byte(r[in.Rs2]))
		case isa.OpSW:
			m.mem.Write32(ea, uint32(r[in.Rs2]))
		case isa.OpSD:
			m.mem.Write64(ea, r[in.Rs2])
		case isa.OpFSD:
			m.mem.Write64(ea, math.Float64bits(f[in.Rs2]))
		}

	// Floating point.
	case isa.OpFADD:
		f[in.Rd] = f[in.Rs1] + f[in.Rs2]
	case isa.OpFSUB:
		f[in.Rd] = f[in.Rs1] - f[in.Rs2]
	case isa.OpFMUL:
		f[in.Rd] = f[in.Rs1] * f[in.Rs2]
	case isa.OpFDIV:
		f[in.Rd] = f[in.Rs1] / f[in.Rs2]
	case isa.OpFNEG:
		f[in.Rd] = -f[in.Rs1]
	case isa.OpFABS:
		f[in.Rd] = math.Abs(f[in.Rs1])
	case isa.OpFSQRT:
		f[in.Rd] = math.Sqrt(f[in.Rs1])
	case isa.OpFMOV:
		f[in.Rd] = f[in.Rs1]
	case isa.OpFCVTDW:
		f[in.Rd] = float64(int64(r[in.Rs1]))
	case isa.OpFCVTWD:
		m.SetReg(in.Rd, uint64(int64(f[in.Rs1])))
	case isa.OpFEQ:
		m.SetReg(in.Rd, boolTo64(f[in.Rs1] == f[in.Rs2]))
	case isa.OpFLT:
		m.SetReg(in.Rd, boolTo64(f[in.Rs1] < f[in.Rs2]))
	case isa.OpFLE:
		m.SetReg(in.Rd, boolTo64(f[in.Rs1] <= f[in.Rs2]))

	// Control.
	case isa.OpBEQ:
		d.Taken = r[in.Rs1] == r[in.Rs2]
	case isa.OpBNE:
		d.Taken = r[in.Rs1] != r[in.Rs2]
	case isa.OpBLT:
		d.Taken = int64(r[in.Rs1]) < int64(r[in.Rs2])
	case isa.OpBGE:
		d.Taken = int64(r[in.Rs1]) >= int64(r[in.Rs2])
	case isa.OpBLTU:
		d.Taken = r[in.Rs1] < r[in.Rs2]
	case isa.OpBGEU:
		d.Taken = r[in.Rs1] >= r[in.Rs2]
	case isa.OpJ:
		d.NextPC = in.Target
	case isa.OpJAL:
		m.SetReg(isa.RegRA, d.PC+isa.InstrBytes)
		d.NextPC = in.Target
	case isa.OpJR:
		d.NextPC = r[in.Rs1]
	case isa.OpJALR:
		next := r[in.Rs1] // read before writing Rd: they may alias
		m.SetReg(in.Rd, d.PC+isa.InstrBytes)
		d.NextPC = next

	case isa.OpNOP:
	case isa.OpHALT:
		if m.privDepth != 0 {
			return fmt.Errorf("halt inside an open privb region")
		}
		m.halted = true

	case isa.OpPRIVB:
		d.EA = r[in.Rs1] + uint64(in.Imm)
		m.privDepth++
	case isa.OpPRIVE:
		if m.privDepth == 0 {
			return fmt.Errorf("prive without matching privb")
		}
		m.privDepth--

	default:
		return fmt.Errorf("unimplemented op %s", in.Op)
	}

	if in.Op.IsBranch() && d.Taken {
		d.NextPC = in.Target
	}
	return nil
}

func boolTo64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func checkAlign(ea uint64, size int) error {
	if size > 1 && ea%uint64(size) != 0 {
		return fmt.Errorf("misaligned %d-byte access at 0x%x", size, ea)
	}
	return nil
}

// Memory is a sparse, page-granular byte-addressable store. Reads of
// untouched memory return zero.
type Memory struct {
	pages map[uint64][]byte
	// memo caches recently touched pages, direct-mapped by page number:
	// guest access streams cycle among a few pages (stack, scalars, one
	// or two arrays or a hash table), and a hit turns the page lookup
	// into a compare instead of a map probe. Entries alias pages, which
	// are never removed, so the memo needs no invalidation.
	memo [memoPages]memoPage
}

// memoPages is the page memo's size (a power of two).
const memoPages = 32

type memoPage struct {
	pg   uint64
	page []byte
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64][]byte)}
}

// Clone returns an independent deep copy: every touched page is copied,
// so writes through either memory never alias the other.
func (mem *Memory) Clone() *Memory {
	c := &Memory{pages: make(map[uint64][]byte, len(mem.pages))}
	for pg, p := range mem.pages {
		np := make([]byte, len(p))
		copy(np, p)
		c.pages[pg] = np
	}
	return c
}

func (mem *Memory) page(pg uint64, create bool) []byte {
	e := &mem.memo[pg%memoPages]
	if e.pg == pg && e.page != nil {
		return e.page
	}
	p, ok := mem.pages[pg]
	if !ok && create {
		p = make([]byte, prog.PageSize)
		mem.pages[pg] = p
	}
	if p != nil {
		e.pg, e.page = pg, p
	}
	return p
}

// Read8 reads one byte.
func (mem *Memory) Read8(addr uint64) byte {
	p := mem.page(prog.PageOf(addr), false)
	if p == nil {
		return 0
	}
	return p[addr%prog.PageSize]
}

// Write8 writes one byte.
func (mem *Memory) Write8(addr uint64, v byte) {
	mem.page(prog.PageOf(addr), true)[addr%prog.PageSize] = v
}

// Read32 reads a little-endian 32-bit value. The address must not straddle
// a page boundary unless 4-byte aligned (callers enforce alignment).
func (mem *Memory) Read32(addr uint64) uint32 {
	off := addr % prog.PageSize
	if off+4 <= prog.PageSize {
		p := mem.page(prog.PageOf(addr), false)
		if p == nil {
			return 0
		}
		return binary.LittleEndian.Uint32(p[off:])
	}
	var b [4]byte
	mem.ReadBytes(addr, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// Write32 writes a little-endian 32-bit value.
func (mem *Memory) Write32(addr uint64, v uint32) {
	off := addr % prog.PageSize
	if off+4 <= prog.PageSize {
		binary.LittleEndian.PutUint32(mem.page(prog.PageOf(addr), true)[off:], v)
		return
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	mem.WriteBytes(addr, b[:])
}

// Read64 reads a little-endian 64-bit value.
func (mem *Memory) Read64(addr uint64) uint64 {
	off := addr % prog.PageSize
	if off+8 <= prog.PageSize {
		p := mem.page(prog.PageOf(addr), false)
		if p == nil {
			return 0
		}
		return binary.LittleEndian.Uint64(p[off:])
	}
	var b [8]byte
	mem.ReadBytes(addr, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// Write64 writes a little-endian 64-bit value.
func (mem *Memory) Write64(addr uint64, v uint64) {
	off := addr % prog.PageSize
	if off+8 <= prog.PageSize {
		binary.LittleEndian.PutUint64(mem.page(prog.PageOf(addr), true)[off:], v)
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	mem.WriteBytes(addr, b[:])
}

// ReadBytes fills dst from memory starting at addr.
func (mem *Memory) ReadBytes(addr uint64, dst []byte) {
	for len(dst) > 0 {
		off := addr % prog.PageSize
		n := prog.PageSize - off
		if n > uint64(len(dst)) {
			n = uint64(len(dst))
		}
		p := mem.page(prog.PageOf(addr), false)
		if p == nil {
			for i := uint64(0); i < n; i++ {
				dst[i] = 0
			}
		} else {
			copy(dst[:n], p[off:off+n])
		}
		dst = dst[n:]
		addr += n
	}
}

// WriteBytes copies src into memory starting at addr.
func (mem *Memory) WriteBytes(addr uint64, src []byte) {
	for len(src) > 0 {
		off := addr % prog.PageSize
		n := prog.PageSize - off
		if n > uint64(len(src)) {
			n = uint64(len(src))
		}
		copy(mem.page(prog.PageOf(addr), true)[off:], src[:n])
		src = src[n:]
		addr += n
	}
}

// ReadFloat64 reads an IEEE 754 double.
func (mem *Memory) ReadFloat64(addr uint64) float64 {
	return math.Float64frombits(mem.Read64(addr))
}

// WriteFloat64 writes an IEEE 754 double.
func (mem *Memory) WriteFloat64(addr uint64, v float64) {
	mem.Write64(addr, math.Float64bits(v))
}

// PageCount returns the number of touched pages (for tests).
func (mem *Memory) PageCount() int { return len(mem.pages) }
