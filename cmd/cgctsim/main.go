// Command cgctsim runs a single simulation and prints its statistics.
//
// Usage:
//
//	cgctsim -benchmark tpc-w -cgct -region 512
//	cgctsim -benchmark barnes -ops 1000000 -seed 7
//	cgctsim -benchmark ocean -directory -cgct
//	cgctsim -list
package main

import (
	"flag"
	"fmt"
	"os"

	"cgct"
	"cgct/internal/profiling"
	"cgct/internal/trace"
)

func main() {
	var (
		bench   = flag.String("benchmark", "tpc-w", "workload to run (see -list)")
		list    = flag.Bool("list", false, "list available benchmarks and exit")
		ops     = flag.Int("ops", 400_000, "trace length per processor")
		seed    = flag.Uint64("seed", 1, "deterministic seed")
		useCGCT = flag.Bool("cgct", false, "enable Coarse-Grain Coherence Tracking")
		region  = flag.Uint64("region", 512, "region size in bytes (256/512/1024; at most the 4096-byte home interleave)")
		rcaSets = flag.Uint64("rcasets", 0, "override RCA set count (default 8192)")
		procs   = flag.Int("procs", 0, "processor count (default 4)")
		checks  = flag.Bool("checks", false, "enable coherence invariant checks (slow)")
		scaled  = flag.Bool("scaled", false, "use the scaled-back 3-state protocol (§3.4)")
		pfilter = flag.Bool("pffilter", false, "filter prefetches by region state (§6)")
		regpf   = flag.Bool("regionpf", false, "prefetch the next region's global state (§6)")
		dir     = flag.Bool("directory", false, "run on the full-map directory fabric instead of the snooping bus")
		ctrace  = flag.String("ctrace", "", "replay a compiled-trace file written by cgcttrace -compile instead of a benchmark")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *list {
		for _, b := range cgct.Benchmarks() {
			fmt.Printf("%-16s %-18s %s\n", b.Name, b.Category, b.Comment)
		}
		return
	}

	opts := cgct.Options{
		Processors:           *procs,
		OpsPerProc:           *ops,
		Seed:                 *seed,
		CGCT:                 *useCGCT,
		RegionBytes:          *region,
		RCASets:              *rcaSets,
		DebugChecks:          *checks,
		ScaledBack:           *scaled,
		PrefetchRegionFilter: *pfilter,
		RegionPrefetch:       *regpf,
		Directory:            *dir,
	}
	var res *cgct.Result
	if *ctrace != "" {
		// A replay runs on as many processors as the file holds.
		var tr *trace.Trace
		if tr, err = trace.ReadFile(*ctrace); err == nil {
			opts.Processors = len(tr.Procs)
			res, err = cgct.RunCompiledTrace(*ctrace, opts)
		}
	} else {
		res, err = cgct.Run(*bench, opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	_, resolved := cgct.ResolveConfig(opts)

	fmt.Println(res)
	fmt.Printf("  cycles:              %d\n", res.Cycles)
	fmt.Printf("  instructions:        %d (IPC %.2f per processor)\n", res.Instructions,
		float64(res.Instructions)/float64(res.Cycles)/float64(resolved.Processors))
	fmt.Printf("  fabric requests:     %d (data %d, wb %d, ifetch %d, dcb %d)\n",
		res.Requests, res.RequestsByCat.Data, res.RequestsByCat.Writebacks,
		res.RequestsByCat.IFetches, res.RequestsByCat.DCBOps)
	fmt.Printf("  broadcasts:          %d (%.0f avg / %d peak per 100K cycles)\n",
		res.Broadcasts, res.AvgBroadcastsPer100K, res.PeakBroadcastsPer100K)
	fmt.Printf("  direct to memory:    %d\n", res.Directs)
	fmt.Printf("  completed locally:   %d\n", res.Locals)
	fmt.Printf("  cache-to-cache:      %d\n", res.CacheToCache)
	classified := "broadcasts"
	if res.Directory {
		classified = "home transactions"
	}
	fmt.Printf("  oracle unnecessary:  %.1f%% of %d %s\n",
		100*res.UnnecessaryFraction(), res.Unnecessary+res.Necessary, classified)
	fmt.Printf("  demand misses:       %d (avg exposed stall %.0f cycles)\n",
		res.DemandMisses, res.AvgDemandMissLatency)
	fmt.Printf("  L2 miss ratio:       %.4f\n", res.L2MissRatio)
	if res.RegionProbes > 0 {
		fmt.Printf("  region-state probes: %d\n", res.RegionProbes)
	}
	if res.Directory {
		fmt.Printf("  directory messages:  %d (three-hop %d, invalidations %d)\n",
			res.DirMessages, res.ThreeHops, res.DirInvalidations)
		fmt.Printf("  home-pipeline wait:  %d cycles queued\n", res.DirQueuedCycles)
		fmt.Printf("  directory entries:   %d allocated, %d peak\n",
			res.DirEntriesAllocated, res.DirPeakEntries)
		if res.CGCT {
			fmt.Printf("  home-pipeline skips: %d fast paths, %d region notifies\n",
				res.DirFastPaths, res.DirRegionNotifies)
		}
	}
	if res.CGCT {
		fmt.Printf("  RCA hit ratio:       %.3f\n", res.RCAHitRatio)
		fmt.Printf("  RCA evictions:       %d (%.1f%% empty, avg %.1f lines)\n",
			res.RCAEvictions, 100*res.RCAEmptyEvictFrac, res.AvgLinesAtEviction)
		fmt.Printf("  self-invalidations:  %d\n", res.RCASelfInvals)
	}
	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
