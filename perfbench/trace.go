package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/carv-repro/teraheap-go/internal/gc"
	"github.com/carv-repro/teraheap-go/internal/rt"
)

// hostLayers are the span names timed from the benchmark's side of each
// layer boundary, reported as "<layer>_ms" medians per repetition.
// gc.minor and gc.major are self times inside the job or server span.
var hostLayers = []string{"rt.session", "spark.load", "spark.job", "gc.minor", "gc.major", "server.run", "storage.drain"}

// profileGroups are the packages whose share of host CPU samples is
// reported as host.<group>_pct; goruntime is the Go runtime itself.
var profileGroups = []string{"vm", "gc", "heap", "graphx", "mllib", "serde", "storage", "core", "server", "goruntime"}

// tracer records host time at layer boundaries, host allocation per
// repetition, and a CPU profile over the traced repetitions.
type tracer struct {
	rep    map[string]time.Duration // spans of the current repetition
	reps   []map[string]time.Duration
	allocs []float64 // host MB allocated per repetition
	mem    runtime.MemStats
	prof   bytes.Buffer
}

func (t *tracer) span(layer string, d time.Duration) { t.rep[layer] += d }

// attach registers a GC-pause timer on the session's hook plane when
// tracing.
func (t *tracer) attach(ses *rt.Session) {
	if t != nil {
		ses.Runtime.Hooks().Register(&gcTimer{t: t})
	}
}

func (t *tracer) start() error { return pprof.StartCPUProfile(&t.prof) }

func (t *tracer) stop() { pprof.StopCPUProfile() }

func (t *tracer) beginRep() {
	t.rep = map[string]time.Duration{}
	runtime.ReadMemStats(&t.mem)
}

func (t *tracer) endRep() {
	before := t.mem.TotalAlloc
	runtime.ReadMemStats(&t.mem)
	t.allocs = append(t.allocs, mb(int64(t.mem.TotalAlloc-before)))
	t.reps = append(t.reps, t.rep)
}

// gcTimer is a gc.Hook that times each pause on the host. Nested pauses
// (a major collection inside a minor one) count toward their own phase
// only, so the two sums are self times.
type gcTimer struct {
	gc.BaseHook
	t    *tracer
	open []gcFrame
}

type gcFrame struct {
	phase gc.Phase
	start time.Time
	child time.Duration
}

func (g *gcTimer) BeforeGC(p gc.Phase) {
	g.open = append(g.open, gcFrame{phase: p, start: time.Now()})
}

func (g *gcTimer) AfterGC(gc.Phase) {
	n := len(g.open)
	if n == 0 {
		return
	}
	f := g.open[n-1]
	g.open = g.open[:n-1]
	d := time.Since(f.start)
	layer := "gc.major"
	if f.phase == gc.PhaseMinor {
		layer = "gc.minor"
	}
	g.t.span(layer, d-f.child)
	if n > 1 {
		g.open[n-2].child += d
	}
}

// metrics sets the host per-layer metrics and the tracing overhead.
func (t *tracer) metrics(res *result, plain, traced []repStats) error {
	for _, layer := range hostLayers {
		xs := make([]float64, len(t.reps))
		for i, r := range t.reps {
			xs[i] = ms(r[layer])
		}
		res.set(layer+"_ms", median(xs), "ms")
	}
	res.set("go.alloc_mb", median(t.allocs), "MB")
	res.set("trace.overhead_s", median(seconds(traced, wallOf))-median(seconds(plain, wallOf)), "s")

	counts, total, err := profileShares(t.prof.Bytes())
	if err != nil {
		return err
	}
	res.set("host.samples", float64(total), "count")
	for _, g := range profileGroups {
		var pct float64
		if total > 0 {
			pct = 100 * float64(counts[g]) / float64(total)
		}
		res.set("host."+g+"_pct", pct, "%")
	}
	return nil
}

// modulePrefix is the import-path prefix of the simulator's packages.
const modulePrefix = "github.com/carv-repro/teraheap-go/internal/"

// profileGroup maps a fully qualified function name to its report group.
func profileGroup(fn string) string {
	if rest, ok := strings.CutPrefix(fn, modulePrefix); ok {
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			return rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/") {
		return "goruntime"
	}
	return "other"
}

// profileShares decodes a gzipped pprof CPU profile and counts samples by
// the group of their leaf function (the innermost inlined frame).
func profileShares(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}

	type sample struct {
		leaf  uint64
		count int64
	}
	var samples []sample
	leafFunc := map[uint64]uint64{} // location id -> innermost function id
	funcName := map[uint64]uint64{} // function id -> string table index
	var strs []string

	// Profile fields: 2 sample, 4 location, 5 function, 6 string_table.
	err = pbFields(raw, func(num int, v uint64, data []byte) error {
		switch num {
		case 2:
			var s sample
			first := true
			err := pbFields(data, func(num int, v uint64, data []byte) error {
				vals := pbUints(v, data)
				switch {
				case num == 1 && first && len(vals) > 0: // location_id
					s.leaf, first = vals[0], false
				case num == 2 && len(vals) > 0 && s.count == 0: // value[0]: samples
					s.count = int64(vals[0])
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id, fn uint64
			haveLine := false
			err := pbFields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line: function_id is field 1; the first line is the leaf
					if !haveLine {
						haveLine = true
						return pbFields(data, func(num int, v uint64, _ []byte) error {
							if num == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			leafFunc[id] = fn
			return err
		case 5:
			var id, name uint64
			err := pbFields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}

	counts := map[string]int64{}
	var total int64
	for _, s := range samples {
		name := ""
		if i := funcName[leafFunc[s.leaf]]; i < uint64(len(strs)) {
			name = strs[i]
		}
		counts[profileGroup(name)] += s.count
		total += s.count
	}
	return counts, total, nil
}

var errTruncated = errors.New("truncated protobuf")

// pbFields calls fn for each field of a protobuf message: v holds varint
// and fixed-width values, data the payload of length-delimited fields
// (nil for the other wire types).
func pbFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbUints decodes a repeated varint field, packed (data) or not (v).
func pbUints(v uint64, data []byte) []uint64 {
	if data == nil {
		return []uint64{v}
	}
	var out []uint64
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		out = append(out, x)
		data = data[n:]
	}
	return out
}
