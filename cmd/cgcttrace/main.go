// Command cgcttrace generates and inspects the synthetic memory traces
// that drive the simulator.
//
// Usage:
//
//	cgcttrace -benchmark ocean -proc 0 -n 50            # dump first 50 ops
//	cgcttrace -benchmark tpc-h -summary                 # per-kind histogram
//	cgcttrace -benchmark tpc-b -compile tpcb.cgct       # compiled columnar trace
//	cgcttrace -info tpcb.cgct                           # inspect a compiled trace
package main

import (
	"flag"
	"fmt"
	"os"

	"cgct"
	"cgct/internal/addr"
	"cgct/internal/trace"
	"cgct/internal/workload"
)

func main() {
	var (
		bench   = flag.String("benchmark", "ocean", "workload")
		proc    = flag.Int("proc", 0, "processor whose trace to inspect")
		n       = flag.Int("n", 30, "operations to dump")
		ops     = flag.Int("ops", 100_000, "trace length per processor")
		procs   = flag.Int("procs", 4, "processor count")
		seed    = flag.Uint64("seed", 1, "deterministic seed")
		summary = flag.Bool("summary", false, "print per-kind and per-region summary instead of a dump")
		compile = flag.String("compile", "", "compile the workload to this file (columnar compiled-trace format) and exit")
		info    = flag.String("info", "", "print a compiled-trace file's summary and exit")
	)
	flag.Parse()

	if *info != "" {
		tr, err := trace.ReadFile(*info)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(tr)
		return
	}

	if *compile != "" {
		err := cgct.CompileTrace(*bench, *compile, cgct.Options{
			Processors: *procs, OpsPerProc: *ops, Seed: *seed,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		tr, err := trace.ReadFile(*compile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("compiled %s\n", tr)
		return
	}

	w, err := workload.Build(*bench, workload.Params{
		Processors: *procs,
		OpsPerProc: *ops,
		Seed:       *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *proc < 0 || *proc >= len(w.Generators) {
		fmt.Fprintf(os.Stderr, "processor %d out of range\n", *proc)
		os.Exit(1)
	}
	gen := w.Generators[*proc]

	if !*summary {
		for i := 0; i < *n; i++ {
			op, ok := gen.Next()
			if !ok {
				break
			}
			fmt.Printf("%6d  %-6s %v gap=%d\n", i, op.Kind, op.Addr, op.Gap)
		}
		return
	}

	geom := addr.MustGeometry(64, 512)
	var kinds [workload.NOpKinds]uint64
	var gaps uint64
	regions := map[addr.RegionAddr]uint64{}
	total := 0
	for {
		op, ok := gen.Next()
		if !ok {
			break
		}
		kinds[op.Kind]++
		gaps += uint64(op.Gap)
		regions[geom.Region(op.Addr)]++
		total++
	}
	fmt.Printf("benchmark %s, processor %d: %d operations\n", *bench, *proc, total)
	for k := workload.OpKind(0); k < workload.NOpKinds; k++ {
		fmt.Printf("  %-8s %8d (%.1f%%)\n", k, kinds[k], 100*float64(kinds[k])/float64(total))
	}
	fmt.Printf("  mean gap: %.1f instructions\n", float64(gaps)/float64(total))
	fmt.Printf("  distinct 512B regions touched: %d (%.1f ops per region)\n",
		len(regions), float64(total)/float64(len(regions)))
}
