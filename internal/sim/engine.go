package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/wisc-arch/datascalar/internal/bus"
	"github.com/wisc-arch/datascalar/internal/core"
	"github.com/wisc-arch/datascalar/internal/fault"
	"github.com/wisc-arch/datascalar/internal/mem"
	"github.com/wisc-arch/datascalar/internal/obs"
	"github.com/wisc-arch/datascalar/internal/prog"
	"github.com/wisc-arch/datascalar/internal/traditional"
	"github.com/wisc-arch/datascalar/internal/workload"
)

// This file is the experiment engine every harness runs on. A harness
// enumerates Jobs — fully independent, deterministic simulations — and
// runJobs executes them on a bounded worker pool, assembling results
// strictly in job order so the output of a sweep is bit-identical at any
// Options.Parallel setting (enforced by TestHarnessesDeterministicUnderParallelism).

// MachineKind selects the timing model a Job runs.
type MachineKind uint8

// The three systems the paper's evaluation compares.
const (
	// KindDS is the n-node DataScalar machine (the paper's contribution).
	KindDS MachineKind = iota
	// KindTraditional is the request/response baseline with 1/n of
	// memory on-chip.
	KindTraditional
	// KindPerfect is the perfect-data-cache upper bound.
	KindPerfect
)

// String names the kind.
func (k MachineKind) String() string {
	switch k {
	case KindDS:
		return "DS"
	case KindTraditional:
		return "traditional"
	case KindPerfect:
		return "perfect"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Job describes one independent timing simulation: which workload, which
// machine, at what size, under what configuration twist. Jobs carry no
// run state and are safe to copy; everything a job references (the
// assembled Program, an explicit PageTable, a LinkConfig reached through
// a mutator) is read-only to the machines, so any number of jobs may run
// concurrently.
type Job struct {
	// Workload is the registry benchmark to run, prepared (assembled and
	// bench_main-located) through the memoized cache at Scale.
	Workload workload.Workload
	// Scale is the workload scale factor (values < 1 mean 1).
	Scale int
	// Program, when non-nil, overrides Workload with a pre-assembled
	// image (the synthetic Figure 3 / result-communication kernels);
	// Workload then only labels results and errors.
	Program *prog.Program

	// Kind selects the machine; Nodes is the DS node or traditional chip
	// count (ignored for KindPerfect).
	Kind  MachineKind
	Nodes int
	// MaxInstr bounds the measured instructions (0 = run to completion).
	MaxInstr uint64

	// Topology selects the interconnect family for KindDS and
	// KindTraditional machines (the zero value is the paper's global
	// bus). It is stamped onto the config before the mutators run, so a
	// DSMut can still adjust the selected family's parameters.
	Topology bus.TopologyKind

	// PageTable, when non-nil, replaces the default single-page
	// round-robin partition (profile-guided placement, replication
	// sweeps). KindDS only.
	PageTable *mem.PageTable
	// DSMut / TradMut adjust the machine configuration after defaults
	// are applied; the matching one for Kind is used. Mutators must be
	// pure functions of the config (they run on worker goroutines).
	DSMut   func(*core.Config)
	TradMut func(*traditional.Config)

	// Observer, when non-nil, receives this job's protocol events and
	// interval samples; it is combined with any observer a mutator
	// installs. Per-job observers keep tracing coherent under
	// concurrency: each job's events go to its own sink.
	Observer obs.Observer
	// NoCycleSkip disables the next-event scheduler for this job's
	// machine (stamped from Options.NoCycleSkip by runJobs).
	NoCycleSkip bool
	// ParallelNodes partitions a KindDS machine's nodes across worker
	// goroutines inside the run (core.Config.ParallelNodes). Jobs that
	// leave it zero inherit Options.ParallelNodes from runJobs; 0 or 1
	// is the serial node loop. Results are bit-identical either way.
	ParallelNodes int

	// Fault is the deterministic fault plan injected into a KindDS
	// machine (see internal/fault). The zero value builds no fault layer
	// at all, so ordinary jobs are untouched. Jobs that leave it zero
	// inherit Options.Fault from runJobs.
	Fault fault.Config
	// CaptureFailure embeds a structured failure (*fault.Report or
	// *core.DeadlockError) in the JobResult instead of failing the whole
	// sweep — campaign harnesses treat those as outcomes, not errors.
	// Unstructured errors still abort the sweep.
	CaptureFailure bool
}

// JobResult is one Job's outcome. Kind mirrors the job; DS is set for
// KindDS, Trad for KindTraditional and KindPerfect.
type JobResult struct {
	Kind MachineKind
	DS   core.Result
	Trad traditional.Result

	// Failure is the structured failure of a CaptureFailure job whose
	// machine halted (*fault.Report on a detected fault, or
	// *core.DeadlockError from the watchdog); nil when the run completed.
	Failure error `json:"-"`
	// FaultStats carries the DS fault counters even when the run halted
	// (DS.Fault covers only completed runs); nil without a fault layer.
	FaultStats *fault.Stats `json:",omitempty"`
}

// IPC returns the run's IPC regardless of machine kind.
func (r JobResult) IPC() float64 {
	if r.Kind == KindDS {
		return r.DS.IPC
	}
	return r.Trad.IPC
}

// prepare resolves the job's program image.
func (j Job) prepare() (prepared, error) {
	if j.Program != nil {
		return prepareProgram(j.Workload, j.Program)
	}
	return prepare(j.Workload, j.Scale)
}

// run executes the job to completion. It is the single copy of the
// machine-construction plumbing every harness previously hand-rolled.
func (j Job) run() (JobResult, error) {
	pr, err := j.prepare()
	if err != nil {
		return JobResult{}, err
	}
	out := JobResult{Kind: j.Kind}
	switch j.Kind {
	case KindDS:
		out.DS, out.FaultStats, err = j.runDS(pr)
		if err != nil && j.CaptureFailure && isStructuredFailure(err) {
			out.Failure, err = err, nil
		}
	case KindTraditional:
		out.Trad, err = j.runTrad(pr)
	case KindPerfect:
		out.Trad, err = j.runPerfect(pr)
	default:
		err = fmt.Errorf("sim: unknown machine kind %d", j.Kind)
	}
	if err != nil {
		return JobResult{}, err
	}
	return out, nil
}

// isStructuredFailure reports whether err is a resilience outcome a
// campaign can classify rather than a harness defect.
func isStructuredFailure(err error) bool {
	var rep *fault.Report
	var dl *core.DeadlockError
	return errors.As(err, &rep) || errors.As(err, &dl)
}

// runDS runs an n-node DataScalar machine; without an explicit PageTable
// it uses the paper's default partition (round-robin single-page
// distribution, replicated text). The fault stats pointer is returned
// separately from the Result so halted runs still expose their counters.
func (j Job) runDS(pr prepared) (core.Result, *fault.Stats, error) {
	pt := j.PageTable
	if pt == nil {
		var err error
		pt, err = defaultPartition(pr.p, j.Nodes)
		if err != nil {
			return core.Result{}, nil, err
		}
	}
	cfg := core.DefaultConfig(j.Nodes)
	cfg.Topology.Kind = j.Topology
	cfg.MaxInstr = j.MaxInstr
	cfg.FastForwardPC = pr.ff
	cfg.NoCycleSkip = j.NoCycleSkip
	cfg.ParallelNodes = j.ParallelNodes
	cfg.Fault = j.Fault
	if j.DSMut != nil {
		j.DSMut(&cfg)
	}
	cfg.Observer = obs.Multi(cfg.Observer, j.Observer)
	m, err := core.NewMachine(cfg, pr.p, pt)
	if err != nil {
		return core.Result{}, nil, err
	}
	r, err := m.Run()
	if err != nil {
		return core.Result{}, m.FaultStats(), fmt.Errorf("sim: %s DS%d: %w", pr.w.Name, j.Nodes, err)
	}
	if !r.CorrespondenceOK {
		return core.Result{}, m.FaultStats(), fmt.Errorf("sim: %s DS%d: cache correspondence violated", pr.w.Name, j.Nodes)
	}
	return r, m.FaultStats(), nil
}

// runTrad runs the traditional baseline with 1/Nodes of memory on-chip.
func (j Job) runTrad(pr prepared) (traditional.Result, error) {
	pt, err := defaultPartition(pr.p, j.Nodes)
	if err != nil {
		return traditional.Result{}, err
	}
	cfg := traditional.DefaultConfig(j.Nodes)
	cfg.Topology.Kind = j.Topology
	cfg.MaxInstr = j.MaxInstr
	cfg.FastForwardPC = pr.ff
	cfg.NoCycleSkip = j.NoCycleSkip
	if j.TradMut != nil {
		j.TradMut(&cfg)
	}
	cfg.Observer = obs.Multi(cfg.Observer, j.Observer)
	m, err := traditional.NewMachine(cfg, pr.p, pt)
	if err != nil {
		return traditional.Result{}, err
	}
	r, err := m.Run()
	if err != nil {
		return traditional.Result{}, fmt.Errorf("sim: %s trad/%d: %w", pr.w.Name, j.Nodes, err)
	}
	return r, nil
}

// runPerfect runs the perfect-data-cache baseline.
func (j Job) runPerfect(pr prepared) (traditional.Result, error) {
	cfg := traditional.DefaultConfig(2)
	cfg.Core.NoCycleSkip = j.NoCycleSkip
	if j.TradMut != nil {
		j.TradMut(&cfg)
	}
	r, err := traditional.RunPerfect(cfg.Core, pr.p, j.MaxInstr, pr.ff)
	if err != nil {
		return traditional.Result{}, fmt.Errorf("sim: %s perfect: %w", pr.w.Name, err)
	}
	return r, nil
}

// defaultPartition builds the paper's default memory partition: all data
// pages dealt round-robin one page at a time, text replicated at every
// node.
func defaultPartition(p *prog.Program, nodes int) (*mem.PageTable, error) {
	return mem.Partition{NumNodes: nodes, BlockPages: 1, ReplicateText: true}.Build(p)
}

// runJobs executes jobs on a worker pool bounded by opts.Parallel
// (already defaulted) and returns their results in job order. Every job
// is deterministic and independent, so the assembled slice — and
// therefore every table and JSON artifact built from it — is
// bit-identical to a serial run.
func runJobs(ctx context.Context, opts Options, jobs []Job) ([]JobResult, error) {
	return runIndexed(ctx, opts.Parallel, len(jobs), func(i int) (JobResult, error) {
		j := jobs[i]
		j.NoCycleSkip = opts.NoCycleSkip
		if j.ParallelNodes == 0 {
			j.ParallelNodes = opts.ParallelNodes
		}
		if j.Fault.IsZero() {
			j.Fault = opts.Fault
		}
		if j.Topology == bus.TopoBus {
			j.Topology = opts.Topology
		}
		return j.run()
	})
}

// runIndexed runs fn(0..n-1) on up to `workers` goroutines (<= 0 means
// GOMAXPROCS) and collects results in index order. On failure it returns
// the error of the lowest failing index — exactly the error a serial
// run returns, because workers claim indexes in ascending order and
// always finish what they claim: any recorded failure implies every
// smaller index was also claimed and ran to completion. A cancelled
// context stops the sweep at the next job boundary and returns ctx.Err().
func runIndexed[T any](ctx context.Context, workers, n int, fn func(int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	var (
		next     atomic.Int64
		mu       sync.Mutex
		errIdx   = n
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(i int, err error) {
		mu.Lock()
		if i < errIdx {
			errIdx, firstErr = i, err
		}
		mu.Unlock()
	}
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil || failed() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				v, err := fn(i)
				if err != nil {
					fail(i, err)
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Workload preparation, memoized.

// prepared bundles a workload's assembled program with its benchmark-main
// fast-forward point. A prepared value is immutable after construction
// and safe to share across concurrent jobs: machines copy the program
// image into their own memory at load and only ever read the Program.
type prepared struct {
	w  workload.Workload
	p  *prog.Program
	ff uint64
}

type prepKey struct {
	name  string
	scale int
}

type prepEntry struct {
	once sync.Once
	pr   prepared
	err  error
}

var prepCache sync.Map // prepKey -> *prepEntry

// prepare assembles workload w at the given scale and locates its
// bench_main fast-forward point, memoized per (workload, scale) so a
// sweep touching the same kernel at hundreds of points assembles it once
// per process. The registry is immutable after init, so the key fully
// determines the result.
func prepare(w workload.Workload, scale int) (prepared, error) {
	if scale < 1 {
		scale = 1
	}
	e, _ := prepCache.LoadOrStore(prepKey{w.Name, scale}, &prepEntry{})
	entry := e.(*prepEntry)
	entry.once.Do(func() {
		entry.pr, entry.err = prepareUncached(w, scale)
	})
	return entry.pr, entry.err
}

func prepareUncached(w workload.Workload, scale int) (prepared, error) {
	p, err := w.Program(scale)
	if err != nil {
		return prepared{}, err
	}
	return prepareProgram(w, p)
}

// prepareProgram wraps a pre-assembled image (synthetic kernels bypass
// the cache — their sources are built inline, not in the registry).
func prepareProgram(w workload.Workload, p *prog.Program) (prepared, error) {
	ff, ok := p.Labels["bench_main"]
	if !ok {
		name := w.Name
		if name == "" {
			name = p.Name
		}
		return prepared{}, fmt.Errorf("sim: workload %s lacks a bench_main label", name)
	}
	return prepared{w: w, p: p, ff: ff}, nil
}
