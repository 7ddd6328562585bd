// Package workload synthesises the memory-reference behaviour of the
// paper's nine benchmarks (Table 4). The real workloads ran as AIX
// checkpoints under a full-system simulator; here each benchmark is a
// deterministic generator that reproduces the *sharing profile* that
// drives the paper's results: the mix of private and shared data, spatial
// locality within regions, migratory objects, producer-consumer phases,
// instruction footprints, write-back pressure and AIX-style DCBZ page
// zeroing.
//
// Generators are deterministic functions of (benchmark, processor, seed),
// so simulations are exactly reproducible. One workload's generators must
// share no mutable state, because trace compilation drains them
// concurrently: each processor gets its own rng stream and its own
// activity instances, and processors share only read-only segments and
// Zipf samplers.
package workload

import (
	"fmt"
	"sort"

	"cgct/internal/addr"
)

// OpKind is an architectural memory operation in a trace.
type OpKind uint8

const (
	// OpLoad is a data load.
	OpLoad OpKind = iota
	// OpStore is a data store.
	OpStore
	// OpIFetch is an instruction fetch (one per instruction-cache line).
	OpIFetch
	// OpDCBZ zeroes one cache line (AIX page initialisation).
	OpDCBZ
	// OpDCBF flushes one cache line to memory.
	OpDCBF
	// NOpKinds is the operation-kind count.
	NOpKinds
)

// String names the op kind.
func (k OpKind) String() string {
	switch k {
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpIFetch:
		return "ifetch"
	case OpDCBZ:
		return "dcbz"
	case OpDCBF:
		return "dcbf"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Op is one trace record: a memory operation preceded by Gap non-memory
// instructions.
type Op struct {
	Kind OpKind
	Addr addr.Addr
	Gap  uint32
}

// Generator produces one processor's operation stream.
type Generator interface {
	// Next returns the next operation; ok is false when the stream ends.
	Next() (op Op, ok bool)
}

// Source is the batched form of Generator consumed by the simulator's hot
// path: Fill writes up to len(dst) operations into dst and returns how
// many it wrote. A return of 0 means the stream is exhausted (Fill is
// never called with an empty dst).
type Source interface {
	Fill(dst []Op) int
}

// GeneratorSource adapts a per-op Generator to the batched Source
// interface, so live generators (hand-built ones, and benchmarks too large
// for the compiled-trace cache) run through the same refill path as
// compiled traces.
type GeneratorSource struct{ G Generator }

// Fill implements Source.
func (s GeneratorSource) Fill(dst []Op) int {
	n := 0
	for n < len(dst) {
		op, ok := s.G.Next()
		if !ok {
			break
		}
		dst[n] = op
		n++
	}
	return n
}

// Workload is a set of per-processor generators plus metadata. Its
// generators (and sources) must share no mutable state: trace
// compilation drains them on concurrent goroutines.
type Workload struct {
	Name       string
	Generators []Generator
	// Sources, when non-nil, are native batched op streams (one per
	// processor) that take precedence over Generators — compiled traces
	// provide these so the simulator refills from a contiguous slab
	// instead of making one interface call per op.
	Sources []Source
}

// Procs returns the number of per-processor op streams the workload
// provides.
func (w Workload) Procs() int {
	if len(w.Sources) > 0 {
		return len(w.Sources)
	}
	return len(w.Generators)
}

// Source returns the batched op source for processor i: the native
// batched source when the workload provides one, otherwise an adapter
// over the per-op Generator.
func (w Workload) Source(i int) Source {
	if len(w.Sources) > 0 {
		return w.Sources[i]
	}
	return GeneratorSource{G: w.Generators[i]}
}

// Params tunes a workload build.
type Params struct {
	Processors int
	OpsPerProc int    // trace length per processor
	Seed       uint64 // master seed; generators derive their own streams
}

// DefaultOpsPerProc is the standard experiment trace length.
const DefaultOpsPerProc = 400_000

// Builder constructs the per-processor generators of one benchmark.
type Builder func(p Params) []Generator

// Info describes a registered benchmark.
type Info struct {
	Name     string
	Category string // Scientific, Multiprogramming, Web, OLTP, Decision Support
	Comment  string
	build    Builder
}

var registry = map[string]Info{}

// register adds a benchmark to the registry (called from init in
// benchmarks.go).
func register(info Info) {
	if _, dup := registry[info.Name]; dup {
		panic("workload: duplicate benchmark " + info.Name)
	}
	registry[info.Name] = info
}

// paperOrder is Table 4's benchmark order (scientific, multiprogramming,
// web, OLTP, decision support), which the figures also use.
var paperOrder = []string{
	"ocean", "raytrace", "barnes",
	"specint2000rate",
	"specweb99", "specjbb2000", "tpc-w",
	"tpc-b",
	"tpc-h",
}

// PaperNames returns the nine Table 4 benchmarks, the set every paper
// experiment runs on.
func PaperNames() []string {
	return append([]string(nil), paperOrder...)
}

// Names returns every registered workload: the Table 4 benchmarks first,
// then any extras (micro-workloads) in sorted order.
func Names() []string {
	order := paperOrder
	var names []string
	for _, n := range order {
		if _, ok := registry[n]; ok {
			names = append(names, n)
		}
	}
	// Any extras (e.g. test-registered micro-workloads) follow sorted.
	var extra []string
	for n := range registry {
		found := false
		for _, o := range order {
			if n == o {
				found = true
				break
			}
		}
		if !found {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	return append(names, extra...)
}

// Lookup returns the registered benchmark info.
func Lookup(name string) (Info, error) {
	info, ok := registry[name]
	if !ok {
		return Info{}, fmt.Errorf("workload: unknown benchmark %q (known: %v)", name, Names())
	}
	return info, nil
}

// Build constructs the named workload.
func Build(name string, p Params) (Workload, error) {
	info, err := Lookup(name)
	if err != nil {
		return Workload{}, err
	}
	if p.Processors <= 0 {
		return Workload{}, fmt.Errorf("workload: need at least one processor")
	}
	if p.OpsPerProc <= 0 {
		p.OpsPerProc = DefaultOpsPerProc
	}
	return Workload{Name: name, Generators: info.build(p)}, nil
}

// MustBuild is Build that panics on error (tests, examples).
func MustBuild(name string, p Params) Workload {
	w, err := Build(name, p)
	if err != nil {
		panic(err)
	}
	return w
}

// SliceGenerator replays a fixed slice of operations (tests, cgctverify
// and the examples).
type SliceGenerator struct {
	Ops []Op
	pos int
}

// Next implements Generator.
func (g *SliceGenerator) Next() (Op, bool) {
	if g.pos >= len(g.Ops) {
		return Op{}, false
	}
	op := g.Ops[g.pos]
	g.pos++
	return op, true
}

// collectChunkCap bounds Collect's up-front allocation: callers routinely
// pass multi-hundred-thousand-op limits that the generator does fill, so
// the slice is sized from the hint instead of doubling from nil, but a
// wildly large max only costs one chunk until ops actually arrive.
const collectChunkCap = 1 << 20

// Collect drains up to max operations from g into a slice (tooling/tests).
// The result is preallocated from max as a size hint.
func Collect(g Generator, max int) []Op {
	if max <= 0 {
		return nil
	}
	ops := make([]Op, 0, min(max, collectChunkCap))
	for len(ops) < max {
		op, ok := g.Next()
		if !ok {
			break
		}
		ops = append(ops, op)
	}
	return ops
}
