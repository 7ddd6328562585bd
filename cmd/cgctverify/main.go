// Command cgctverify hammers the coherence protocols with randomised
// high-contention workloads under every checker the simulator has: route
// safety (no request skips the broadcast while a remote copy exists),
// region exclusivity, MOESI single-writer, directory agreement, and the
// data-version checker (no processor ever reads a stale copy). Any
// violation panics with a diagnostic.
//
// Usage:
//
//	cgctverify -duration 30s
//	cgctverify -duration 5m -procs 8 -seed 42
package main

import (
	"flag"
	"fmt"
	"time"

	"cgct/internal/addr"
	"cgct/internal/config"
	"cgct/internal/rng"
	"cgct/internal/sim"
	"cgct/internal/workload"
)

func main() {
	var (
		duration = flag.Duration("duration", 30*time.Second, "how long to verify")
		procs    = flag.Int("procs", 4, "processor count")
		seed     = flag.Uint64("seed", 1, "starting seed")
		ops      = flag.Int("ops", 4_000, "trace length per processor per iteration")
	)
	flag.Parse()

	deadline := time.Now().Add(*duration)
	iter := 0
	var runs, requests uint64
	for time.Now().Before(deadline) {
		s := *seed + uint64(iter)
		iter++
		master := rng.New(s)

		// Random hot-set size: tiny pools maximise protocol races.
		hotRegions := 2 + master.Intn(8)
		gens := make([]workload.Generator, *procs)
		for p := range gens {
			pr := master.Split()
			opsSlice := make([]workload.Op, *ops)
			for i := range opsSlice {
				var a uint64
				if pr.Bool(0.75) {
					a = 0x400000 + pr.Uint64n(uint64(hotRegions)*512)
				} else {
					a = 0x500000 + pr.Uint64n(1<<17)
				}
				kind := workload.OpLoad
				switch pr.Uint64n(12) {
				case 0, 1, 2:
					kind = workload.OpStore
				case 3:
					kind = workload.OpDCBZ
				case 4:
					kind = workload.OpDCBF
				}
				opsSlice[i] = workload.Op{Kind: kind, Addr: addr.Addr(a &^ 63), Gap: uint32(pr.Uint64n(24))}
			}
			gens[p] = &workload.SliceGenerator{Ops: opsSlice}
		}
		w := workload.Workload{Name: "verify", Generators: gens}

		// Cycle through the protocol configurations.
		cfgs := []config.Config{
			config.Default(),
			config.Default().WithCGCT(256),
			config.Default().WithCGCT(512),
			config.Default().WithCGCT(1024),
			config.Default().WithRegionScout(512),
		}
		cfgs = append(cfgs,
			config.Default().WithDirectory(),
			config.Default().WithCGCT(512).WithDirectory(),
		)
		scaled := config.Default().WithCGCT(512)
		scaled.RCA.ThreeState = true
		cfgs = append(cfgs, scaled)
		shared := config.Default().WithCGCT(512)
		shared.RCA.ReadSharedDirect = true
		cfgs = append(cfgs, shared)
		sectored := config.Default().WithCGCT(512)
		sectored.L2SectorBytes = 512
		cfgs = append(cfgs, sectored)

		for ci := range cfgs {
			cfg := cfgs[ci]
			cfg.Topology.Processors = *procs
			if cfg.CGCTEnabled {
				// Randomly shrink the RCA to force region evictions.
				cfg.RCA.Sets = []uint64{8, 64, 8192}[master.Intn(3)]
			}
			// Fresh generators per configuration (SliceGenerator is stateful).
			fresh := make([]workload.Generator, *procs)
			for p := range fresh {
				fresh[p] = &workload.SliceGenerator{Ops: gens[p].(*workload.SliceGenerator).Ops}
			}
			system := sim.MustNew(cfg, workload.Workload{Name: w.Name, Generators: fresh}, s)
			system.DebugChecks = true
			// The verifier wants a crash with a stack trace, not a polite
			// error return: keep the panic-on-violation behaviour.
			system.PanicOnViolation = true
			run := system.Run()
			runs++
			requests += run.TotalRequests()
		}
		if iter%10 == 0 {
			fmt.Printf("iteration %d: %d runs, %d requests verified\n", iter, runs, requests)
		}
	}
	fmt.Printf("OK: %d iterations, %d runs, %d fabric requests — no invariant violations\n",
		iter, runs, requests)
}
