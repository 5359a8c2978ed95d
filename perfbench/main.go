// Command perfbench is the repository's host-performance benchmark. It
// drives the simulator's public constructors and run calls directly (not
// the sim experiment engine), times each call from outside, checks every
// run against an oracle built on the functional emulator, and prints one
// JSON result line. See README.md for the workloads and metrics.
//
//	go run . -workload fig7-ds -seed 1 -seconds 10 -trace 0
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	commit   string
	outDir   string
	budget   uint64
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: fig7-ds, fig7-trad, mesh64, cascade16")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed (page ownership deal; cascade16 death schedule)")
	fs.IntVar(&o.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	fs.StringVar(&o.commit, "commit", "unknown", "source commit recorded in the host stamp")
	fs.Uint64Var(&o.budget, "budget", 0, "instruction budget per run (0 = the workload's default; smaller is for self-tests)")
	fs.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for the report, spans and CPU profile")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(o.workload)
	if err != nil || o.seconds < 1 || (o.trace != 0 && o.trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "perfbench: need -workload fig7-ds|fig7-trad|mesh64|cascade16, -seconds >= 1, -trace 0|1")
		return 2
	}
	rep, err := measure(w, o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := rep.write(o); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep.print(stdout)
	if !rep.Correct {
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result of one invocation.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	host      hostStamp
	info      []string // human-only lines: fail_rate, pass counts
	selfTimes map[string]float64
	profiles  [][]byte // one CPU profile per traced pass
	tr        *tracer
}

func (r *report) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// measure runs the workload's references and passes and derives the
// metrics. Untraced, every pass is plain. Traced, plain passes take
// turns with traced ones and, where the workload has one, a variant
// (observed for fig7-ds, serial for the parallel workloads), so that
// host drift hits all three alike. The CPU profiler runs during the
// traced passes only, one profile per pass.
func measure(w workloadDef, o options, log io.Writer) (*report, error) {
	b, err := newBench(w, o.seed, o.budget, log)
	if err != nil {
		return nil, err
	}
	if err := b.prepare(); err != nil {
		return nil, err
	}
	rep := &report{Metrics: map[string]metric{}, host: stampHost(o.commit)}

	const (
		plainPass = iota
		variantPass
		tracedPass
	)
	turns := []int{plainPass}
	var variantMode passMode
	var tr *tracer
	if o.trace == 1 {
		tr = newTracer()
		turns = append(turns, tracedPass)
		switch {
		case w.Name == "fig7-ds":
			variantMode = passMode{observe: true}
			turns = append(turns, variantPass)
		case b.parallel():
			variantMode = passMode{serial: true}
			turns = append(turns, variantPass)
		}
	}
	var passes [3][]passStats
	var profiles [][]byte
	// At least three plain passes, or two rounds of turns when traced,
	// which keeps a traced mesh64 run (a round of three passes takes
	// about 25 s) well inside the time a run may take.
	minPasses := 3
	if len(turns) > 1 {
		minPasses = 2 * len(turns)
	}
	budget := time.Duration(o.seconds) * time.Second
	start := time.Now()
	for i := 0; i < minPasses || time.Since(start) < budget; i++ {
		turn := turns[i%len(turns)]
		mode := passMode{}
		b.tr = nil
		switch turn {
		case variantPass:
			mode = variantMode
		case tracedPass:
			b.tr = tr
		}
		var ps passStats
		if b.tr == nil {
			ps, err = b.pass(mode)
		} else {
			var prof bytes.Buffer
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return nil, err
			}
			pprof.Do(context.Background(), pprof.Labels("phase", "pass"), func(ctx context.Context) {
				b.ctx = ctx
				ps, err = b.pass(mode)
			})
			pprof.StopCPUProfile()
			profiles = append(profiles, prof.Bytes())
		}
		if err != nil {
			return nil, err
		}
		passes[turn] = append(passes[turn], ps)
	}
	if tr != nil {
		rep.profiles, rep.tr, rep.selfTimes = profiles, tr, tr.selfTimes()
	}
	rep.Attempted, rep.Failed = b.attempted, b.failed
	rep.Correct = b.failed == 0
	rep.info = append(rep.info,
		fmt.Sprintf("fail_rate %g ratio (%d of %d runs failed the oracle)",
			float64(b.failed)/float64(b.attempted), b.failed, b.attempted),
		fmt.Sprintf("passes: %d plain, %d variant, %d traced; %d runs per pass",
			len(passes[plainPass]), len(passes[variantPass]), len(passes[tracedPass]), len(b.specs)))
	if o.trace == 0 {
		endToEnd(rep, passes[plainPass])
		return rep, nil
	}
	if err := perLayer(rep, b, passes[plainPass], passes[variantPass], passes[tracedPass]); err != nil {
		return nil, err
	}
	return rep, nil
}

func (b *bench) parallel() bool {
	for _, s := range b.specs {
		if s.Parallel > 1 {
			return true
		}
	}
	return false
}

// endToEnd sets the metrics a user of the simulator sees: the run-call
// time of one pass and its node-instruction throughput, the median
// set-up time, the process's memory high-water mark and the simulated
// cycles (identical in every pass; the oracle enforces it).
//
// The run-call time is the sum over the workload's runs of each run's
// median time over the passes. Other tenants of the host slow it for
// stretches of a second or more, and a median per run call discards a
// stretch that hits one call of one pass; on the reference host it
// spread less between invocations than the median of whole passes, and
// much less than the fastest pass.
func endToEnd(rep *report, passes []passStats) {
	var run float64
	for i := range passes[0].perRun {
		run += median(passes, func(p passStats) float64 { return p.perRun[i].Seconds() })
	}
	rep.set("node_mips", float64(passes[0].nodeInstr())/run/1e6, "MIPS")
	rep.set("wall_s", run, "s")
	rep.set("setup_s", median(passes, func(p passStats) float64 { return p.setup().Seconds() }), "s")
	rep.set("peak_mem_mb", peakRSSMB(), "MB")
	rep.set("sim_cycles", float64(passes[0].cycles), "cycles")
}

func median(passes []passStats, f func(passStats) float64) float64 {
	if len(passes) == 0 {
		return 0
	}
	v := make([]float64, len(passes))
	for i, p := range passes {
		v[i] = f(p)
	}
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0 (the metric does not apply).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB is the process's resident-set high-water mark. The process
// runs one workload, so this is that workload's peak.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// hostStamp identifies the host and build the numbers were taken on;
// numbers compare only between reports with equal stamps.
type hostStamp struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
}

func stampHost(commit string) hostStamp {
	h := hostStamp{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// print writes the human summary, then the result as the last line.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "host: cpu=%q nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		r.host.CPU, r.host.NProc, r.host.GOMAXPROCS, r.host.GoVersion, r.host.Commit)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-36s %-14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for _, l := range r.info {
		fmt.Fprintln(w, l)
	}
	line, _ := json.Marshal(r)
	fmt.Fprintf(w, "%s\n", line)
}

// write saves the report with its host stamp and, for a traced run, the
// spans (Chrome trace-event JSON) and each traced pass's CPU profile
// (pprof).
func (r *report) write(o options) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d-trace%d", o.workload, o.seed, o.trace))
	full := struct {
		Workload  string             `json:"workload"`
		Seed      uint64             `json:"seed"`
		Seconds   int                `json:"seconds"`
		Host      hostStamp          `json:"host"`
		Result    *report            `json:"result"`
		Info      []string           `json:"info"`
		SelfTimes map[string]float64 `json:"spanSelfSeconds,omitempty"`
	}{o.workload, o.seed, o.seconds, r.host, r, r.info, r.selfTimes}
	js, err := json.MarshalIndent(full, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(js, '\n'), 0o644); err != nil {
		return err
	}
	if r.tr == nil {
		return nil
	}
	for i, prof := range r.profiles {
		if err := os.WriteFile(fmt.Sprintf("%s.pass%d.pprof", base, i+1), prof, 0o644); err != nil {
			return err
		}
	}
	f, err := os.Create(base + ".spans.json")
	if err != nil {
		return err
	}
	if err := r.tr.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
