package main

import (
	"github.com/wisc-arch/datascalar/internal/bus"
	"github.com/wisc-arch/datascalar/internal/obs"
)

// perLayer sets the traced run's metrics. Times are medians over the
// traced passes; counts come from the serial reference runs, which every
// timed run equals; ratios compare the plain and variant passes of the
// untraced third. A metric that does not apply to the workload (say,
// traditional.ns_per_instr on mesh64) reads 0.
func perLayer(rep *report, b *bench, plain, variant, traced []passStats) error {
	sec := func(f func(passStats) float64) float64 { return median(traced, f) }
	nsPer := func(k machineKind) float64 {
		return sec(func(p passStats) float64 {
			return ratio(float64(p.runByKind[k].Nanoseconds()), float64(p.instrByKind[k]))
		})
	}
	allocsPer := func(k machineKind) float64 {
		var allocs, runs float64
		for _, p := range traced {
			allocs += float64(p.allocsByKind[k])
			runs += float64(p.runsByKind[k])
		}
		return ratio(allocs, runs)
	}
	runS := func(passes []passStats) float64 {
		return median(passes, func(p passStats) float64 { return p.run().Seconds() })
	}

	rep.set("asm.assemble_s", sec(func(p passStats) float64 { return p.asm.Seconds() }), "s")
	rep.set("mem.partition_s", sec(func(p passStats) float64 { return p.partition.Seconds() }), "s")
	rep.set("emu.fastforward_s", sec(func(p passStats) float64 { return p.ff.Seconds() }), "s")
	rep.set("emu.ref_mips", sec(func(p passStats) float64 {
		return ratio(float64(p.refInstr), p.ref.Seconds()) / 1e6
	}), "MIPS")
	rep.set("ooo.perfect_ns_per_instr", nsPer(kindPerfect), "ns")
	rep.set("core.new_s", sec(func(p passStats) float64 { return p.newByKind[kindDS].Seconds() }), "s")
	rep.set("core.ns_per_node_instr", nsPer(kindDS), "ns")
	rep.set("core.allocs_per_run", allocsPer(kindDS), "count")
	rep.set("traditional.ns_per_instr", nsPer(kindTrad), "ns")
	rep.set("traditional.allocs_per_run", allocsPer(kindTrad), "count")
	rep.set("runtime.gc_cycles", sec(func(p passStats) float64 { return float64(p.gcCycles) }), "count")
	tracedRun := runS(traced)
	rep.set("trace.overhead_ratio", ratio(tracedRun, runS(plain)), "ratio")
	var speedup, obsOverhead float64
	switch {
	case b.w.Name == "fig7-ds":
		obsOverhead = ratio(runS(variant), runS(plain))
	case b.parallel():
		speedup = ratio(runS(variant), runS(plain))
	}
	rep.set("core.parallel_speedup", speedup, "ratio")
	rep.set("obs.overhead_ratio", obsOverhead, "ratio")

	c := countRefs(b.refOut)
	rep.set("ooo.committed", c.committed, "count")
	rep.set("ooo.window_full_cycles", c.windowFull, "cycles")
	rep.set("ooo.lsq_full_cycles", c.lsqFull, "cycles")
	rep.set("cache.issue_hit_ratio", ratio(c.issueHits, c.issueHits+c.issueMisses), "ratio")
	rep.set("bus.messages", c.bus.messages, "count")
	rep.set("bus.bytes", c.bus.bytes, "bytes")
	rep.set("bus.busy_cycles", c.bus.busy, "cycles")
	rep.set("bus.arb_waits", c.bus.arbWaits, "count")
	rep.set("core.broadcasts", c.broadcasts, "count")
	rep.set("core.late_broadcasts", c.late, "count")
	rep.set("core.false_hits", c.falseHits, "count")
	rep.set("core.false_misses", c.falseMisses, "count")
	rep.set("bshr.allocs", c.bshrAllocs, "count")
	rep.set("bshr.buffered_hit_ratio", ratio(c.bufferedHits, c.remoteMisses), "ratio")
	rep.set("fault.retries", c.retries, "count")
	rep.set("fault.remapped_pages", c.remapped, "count")
	rep.set("fault.warm_fill_msgs", c.warmFill, "count")
	rep.set("fault.retries_served_ratio", ratio(c.retriesServed, c.retries), "ratio")
	rep.set("fault.detect_latency_mean_cycles", ratio(c.detectLatency, c.deaths), "cycles")
	rep.set("fault.post_death_ipc", ratio(c.postDeathIPC, c.cascades), "IPC")
	total := float64(c.stack.Total())
	for k := obs.StallKind(0); k < obs.NumStallKinds; k++ {
		rep.set("cpi."+k.String(), ratio(float64(c.stack[k]), total), "ratio")
	}

	var fold cpuFold
	for _, prof := range rep.profiles {
		if err := fold.foldProfile(prof); err != nil {
			return err
		}
	}
	shares := fold.shares()
	for _, l := range layers {
		rep.set("cpu_share."+l, shares[l], "ratio")
	}
	rep.set("runtime.background_cpu_ratio", ratio(fold.background, fold.run), "ratio")
	// The bus layer's host CPU time per simulated message, over the
	// messages the traced passes simulated.
	rep.set("bus.host_ns_per_message", ratio(fold.byLayer["bus"], c.bus.messages*float64(len(traced))), "ns")
	return nil
}

// refCounts sums the simulated counters of one pass's runs.
type refCounts struct {
	committed, windowFull, lsqFull           float64
	issueHits, issueMisses                   float64
	bus                                      struct{ messages, bytes, busy, arbWaits float64 }
	broadcasts, late, falseHits, falseMisses float64
	bshrAllocs, bufferedHits, remoteMisses   float64
	retries, retriesServed, remapped         float64
	warmFill, detectLatency, deaths          float64
	postDeathIPC, cascades                   float64
	stack                                    obs.CPIStack
}

func countRefs(outs []outcome) refCounts {
	var c refCounts
	addBus := func(s bus.Stats) {
		c.bus.messages += float64(s.Messages.Value())
		c.bus.bytes += float64(s.Bytes.Value())
		c.bus.busy += float64(s.BusyCycles.Value())
		c.bus.arbWaits += float64(s.ArbWaits.Value())
	}
	for _, o := range outs {
		for _, s := range o.cores() {
			c.committed += float64(s.Committed)
			c.windowFull += float64(s.WindowFullC)
			c.lsqFull += float64(s.LSQFullC)
		}
		for _, s := range o.stacks() {
			for k, n := range s {
				c.stack[k] += n
			}
		}
		if o.trad != nil {
			if o.spec.Kind == kindTrad {
				c.issueHits += float64(o.trad.Mem.IssueHits.Value())
				c.issueMisses += float64(o.trad.Mem.IssueMisses.Value())
				addBus(o.trad.BusStats)
			}
			continue
		}
		addBus(o.ds.BusStats)
		for i, n := range o.ds.Nodes {
			c.issueHits += float64(n.IssueHits.Value())
			c.issueMisses += float64(n.IssueMisses.Value())
			c.broadcasts += float64(n.Broadcasts.Value())
			c.late += float64(n.LateBroadcasts.Value())
			c.falseHits += float64(n.FalseHits.Value())
			c.falseMisses += float64(n.FalseMisses.Value())
			c.remoteMisses += float64(n.RemoteMisses.Value())
			c.bshrAllocs += float64(o.ds.BSHR[i].Allocs.Value())
			c.bufferedHits += float64(o.ds.BSHR[i].BufferedHits.Value())
		}
		if f := o.ds.Fault; f != nil {
			c.retries += float64(f.Retries)
			c.retriesServed += float64(f.RetriesServed)
			c.remapped += float64(f.RemappedPages)
			c.warmFill += float64(f.WarmFillMsgs)
			for _, d := range f.Deaths {
				c.detectLatency += float64(d.DetectLatency)
				c.deaths++
			}
			if n := len(f.Deaths); n > 0 {
				c.postDeathIPC += f.Deaths[n-1].PostDeathIPC
				c.cascades++
			}
		}
	}
	return c
}
