package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"path"
	"strings"
	"time"
)

// span is one timed call into a layer. Spans nest: a pass contains one
// span per run, which contains its partition, construction, run and
// oracle spans. Spans of one pass share its number.
type span struct {
	ID, Parent, Pass int
	Name             string
	Start, End       time.Duration // since the tracer started
}

// tracer keeps spans in memory; they are written out when the
// benchmark ends. A nil tracer records nothing.
type tracer struct {
	t0    time.Time
	pass  int
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	} else {
		t.pass++
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Pass: t.pass, Name: name, Start: time.Since(t.t0)})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.t0)
	t.open = t.open[:len(t.open)-1]
}

// selfTimes sums each span name's self time in seconds: its duration
// minus the part its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		out[s.Name] += (s.End - s.Start - child[i]).Seconds()
	}
	return out
}

// writeChrome writes the spans in the Chrome trace-event format, which
// Perfetto and chrome://tracing open.
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, len(t.spans))
	for i, s := range t.spans {
		evs[i] = event{Name: s.Name, Ph: "X", PID: 1, TID: 1,
			TS:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "pass": s.Pass}}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs})
}

// layers are the CPU-share buckets, in report order: this repository's
// modules, internal/core split by source file, the Go runtime, and
// everything else (isa, prog, stats, the standard library, this
// benchmark).
var layers = []string{
	"asm", "mem", "emu", "ooo", "cache", "bus",
	"core.rest", "core.bshr", "core.parallel", "core.fault",
	"traditional", "fault", "obs", "runtime", "other",
}

const modulePrefix = "github.com/wisc-arch/datascalar/internal/"

// layerOf maps a profiled function to its layer by package, and within
// internal/core by file.
func layerOf(funcName, file string) string {
	slash := strings.LastIndex(funcName, "/")
	pkg := funcName
	if dot := strings.Index(funcName[slash+1:], "."); dot >= 0 {
		pkg = funcName[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, modulePrefix):
		switch sub := pkg[len(modulePrefix):]; sub {
		case "asm", "workload":
			return "asm"
		case "mem", "emu", "ooo", "cache", "bus", "traditional", "fault", "obs":
			return sub
		case "core":
			switch path.Base(file) {
			case "bshr.go":
				return "core.bshr"
			case "parallel.go":
				return "core.parallel"
			case "fault.go":
				return "core.fault"
			}
			return "core.rest"
		}
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// cpuFold is CPU time folded from the traced passes' profiles, in
// nanoseconds.
type cpuFold struct {
	// byLayer is the flat time of samples labelled phase=run: the timed
	// run calls, the worker goroutines they start (which inherit the
	// label), and the GC assists and allocation they do themselves.
	byLayer map[string]float64
	run     float64 // the sum of byLayer
	// background is the time of unlabelled samples: runtime goroutines
	// such as the GC's background mark workers, the sweeper and the
	// scavenger, which serve the whole pass and cannot be charged to
	// one call, and the profiler's own writer.
	background float64
}

// shares divides each layer's time by the run calls' CPU time, so the
// shares sum to 1 (or are all 0 when nothing was sampled).
func (f cpuFold) shares() map[string]float64 {
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		out[l] = ratio(f.byLayer[l], f.run)
	}
	return out
}

// foldProfile adds a gzipped pprof CPU profile's flat time to f, by
// layer for the run calls and as one figure for background work.
// Samples with any other phase label (the rest of a traced pass: set-up,
// the functional reference, the oracle) are left out.
func (f *cpuFold) foldProfile(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	type function struct{ name, file uint64 }
	type sample struct {
		locs, values []uint64
		labels       [][2]uint64 // key, value string indexes
	}
	var (
		strs    []string
		funcs   = map[uint64]function{}
		leafFn  = map[uint64]uint64{} // location -> innermost function
		samples []sample
	)
	err = pbFields(raw, func(f, wire int, v uint64, b []byte) error {
		switch f {
		case 2: // Sample
			var s sample
			err := pbFields(b, func(f, wire int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = pbVarints(s.locs, wire, v, b)
				case 2:
					s.values = pbVarints(s.values, wire, v, b)
				case 3: // Label
					var l [2]uint64
					err := pbFields(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 || f == 2 {
							l[f-1] = v
						}
						return nil
					})
					s.labels = append(s.labels, l)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location; its first Line is the innermost inlined call
			var id, fn uint64
			err := pbFields(b, func(f, _ int, v uint64, b []byte) error {
				switch {
				case f == 1:
					id = v
				case f == 4 && fn == 0:
					return pbFields(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			leafFn[id] = fn
			return err
		case 5: // Function
			var id uint64
			var fn function
			err := pbFields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					fn.name = v
				case 4:
					fn.file = v
				}
				return nil
			})
			funcs[id] = fn
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	if f.byLayer == nil {
		f.byLayer = map[string]float64{}
	}
	for _, s := range samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		ns := float64(s.values[len(s.values)-1]) // cpu nanoseconds
		switch phaseOf(s.labels, str) {
		case "run":
			fn := funcs[leafFn[s.locs[0]]]
			f.byLayer[layerOf(str(fn.name), str(fn.file))] += ns
			f.run += ns
		case "":
			f.background += ns
		}
	}
	return nil
}

// phaseOf is a sample's phase label, or "" when it has none.
func phaseOf(labels [][2]uint64, str func(uint64) string) string {
	for _, l := range labels {
		if str(l[0]) == "phase" {
			return str(l[1])
		}
	}
	return ""
}

// pbFields walks the fields of one protobuf message, calling fn with the
// field number, wire type, and either the varint/fixed value or the
// length-delimited payload.
func pbFields(b []byte, fn func(field, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("profile: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("profile: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// pbVarints appends a repeated varint field, packed or not.
func pbVarints(dst []uint64, wire int, v uint64, payload []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(payload) > 0 {
		x, n := binary.Uvarint(payload)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		payload = payload[n:]
	}
	return dst
}
