package workload

// Micro-workloads: minimal, single-pattern generators for experimentation
// and debugging. They are registered alongside the Table 4 benchmarks but
// excluded from the paper experiments (see PaperNames).

func init() {
	register(Info{
		Name: "micro-private", Category: "Micro",
		Comment: "pure private streaming: every broadcast is unnecessary, the CGCT best case",
		build:   buildMicroPrivate,
	})
	register(Info{
		Name: "micro-migratory", Category: "Micro",
		Comment: "pure migratory sharing: every broadcast is necessary, the CGCT worst case",
		build:   buildMicroMigratory,
	})
	register(Info{
		Name: "micro-producer-consumer", Category: "Micro",
		Comment: "one-way producer/consumer pipeline between neighbouring processors",
		build:   buildMicroProducerConsumer,
	})
	register(Info{
		Name: "micro-falseshare", Category: "Micro",
		Comment: "per-processor counters packed into shared regions (region-level false sharing)",
		build:   buildMicroFalseShare,
	})
}

func buildMicroPrivate(p Params) []Generator {
	master := seedFor("micro-private", p)
	var l layout
	code := commonCode(&l, 64*kb, 8*kb, 0.05, 0.9)
	heaps := l.perProc(p.Processors, 8*mb, pageBytes)
	gens := make([]Generator, p.Processors)
	for i := range gens {
		mix := []weighted{
			{&streamer{seg: heaps[i], runLines: 32, storeProb: 0.3, accPerLn: 2}, 1},
		}
		gens[i] = newEngine(master.Split(), p.OpsPerProc, 10, code(), []phase{{frac: 1, mix: mix}})
	}
	return gens
}

func buildMicroMigratory(p Params) []Generator {
	master := seedFor("micro-migratory", p)
	var l layout
	code := commonCode(&l, 64*kb, 8*kb, 0.05, 0.9)
	pool := l.seg(256*kb, pageBytes)
	gens := make([]Generator, p.Processors)
	for i := range gens {
		mix := []weighted{
			{&migratory{pool: pool, objBytes: 256, objects: pool.Size / 256}, 1},
		}
		gens[i] = newEngine(master.Split(), p.OpsPerProc, 10, code(), []phase{{frac: 1, mix: mix}})
	}
	return gens
}

func buildMicroProducerConsumer(p Params) []Generator {
	master := seedFor("micro-producer-consumer", p)
	var l layout
	code := commonCode(&l, 64*kb, 8*kb, 0.05, 0.9)
	parts := l.perProc(p.Processors, 512*kb, pageBytes)
	gens := make([]Generator, p.Processors)
	for i := range gens {
		mix := []weighted{
			{newProducerConsumer(parts, i, 256), 1},
		}
		gens[i] = newEngine(master.Split(), p.OpsPerProc, 10, code(), []phase{{frac: 1, mix: mix}})
	}
	return gens
}

func buildMicroFalseShare(p Params) []Generator {
	master := seedFor("micro-falseshare", p)
	var l layout
	code := commonCode(&l, 64*kb, 8*kb, 0.05, 0.9)
	arena := l.seg(uint64(p.Processors)*2*mb, pageBytes)
	gens := make([]Generator, p.Processors)
	for i := range gens {
		mix := []weighted{
			{newInterleavedPrivate(arena, i, p.Processors, 512, 0.5, 0.7), 1},
		}
		gens[i] = newEngine(master.Split(), p.OpsPerProc, 10, code(), []phase{{frac: 1, mix: mix}})
	}
	return gens
}
