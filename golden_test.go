package cgct

// Golden determinism tests: the simulated results for a fixed (benchmark,
// config, seed) are part of the engine's contract. The fixtures in
// testdata/golden_runs.json were captured from the original closure-per-
// event binary-heap engine; any event-queue or hot-path optimisation must
// reproduce every stats.Run counter bit-for-bit. Regenerate (only when a
// change is *supposed* to alter simulated results, e.g. a timing-model fix)
// with:
//
//	go test -run TestGoldenRuns -update-golden

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"cgct/internal/sim"
	"cgct/internal/stats"
	"cgct/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_runs.json from the current engine")

// goldenCase is one pinned configuration. Ocean and tpc-w cover the two
// workload families; each runs baseline and CGCT so both the broadcast and
// the direct/local routing paths are pinned.
type goldenCase struct {
	Name      string
	Benchmark string
	Opts      Options
}

func goldenCases() []goldenCase {
	const ops = 60_000
	const ops16 = 20_000
	const seed = 7
	return []goldenCase{
		{"ocean-baseline", "ocean", Options{OpsPerProc: ops, Seed: seed}},
		{"ocean-cgct", "ocean", Options{OpsPerProc: ops, Seed: seed, CGCT: true}},
		{"tpcw-baseline", "tpc-w", Options{OpsPerProc: ops, Seed: seed}},
		{"tpcw-cgct", "tpc-w", Options{OpsPerProc: ops, Seed: seed, CGCT: true}},
		{"tpcw-cgct-perturb", "tpc-w", Options{OpsPerProc: ops, Seed: seed, CGCT: true, PerturbCycles: 40}},
		{"ocean-directory", "ocean", Options{OpsPerProc: ops, Seed: seed, Directory: true}},
		{"ocean-dir-cgct", "ocean", Options{OpsPerProc: ops, Seed: seed, CGCT: true, Directory: true}},
		{"tpcw-scout", "tpc-w", Options{OpsPerProc: ops, Seed: seed, RegionScout: true}},
		// 16 processors: the remote-scan filters skip the most nodes here,
		// and the baseline's broadcasts snoop every node.
		{"tpcb16-baseline", "tpc-b", Options{Processors: 16, OpsPerProc: ops16, Seed: seed}},
		{"tpcb16-directory", "tpc-b", Options{Processors: 16, OpsPerProc: ops16, Seed: seed, Directory: true}},
		{"tpcb16-cgct", "tpc-b", Options{Processors: 16, OpsPerProc: ops16, Seed: seed, CGCT: true}},
		{"tpcb16-dir-cgct", "tpc-b", Options{Processors: 16, OpsPerProc: ops16, Seed: seed, CGCT: true, Directory: true}},
		{"tpcb16-scout", "tpc-b", Options{Processors: 16, OpsPerProc: ops16, Seed: seed, RegionScout: true}},
	}
}

// runStats executes one golden case and returns its flattened counters.
// It releases the machine once they are read, so the next machine New
// builds starts on this one's recycled tag storage.
func runStats(t *testing.T, c goldenCase) map[string]uint64 {
	t.Helper()
	cfg, o := ResolveConfig(c.Opts)
	w, err := workload.Build(c.Benchmark, workload.Params{
		Processors: o.Processors,
		OpsPerProc: o.OpsPerProc,
		Seed:       o.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	system, err := sim.New(cfg, w, o.Seed)
	if err != nil {
		t.Fatal(err)
	}
	defer system.Release()
	return flatten(system.Run())
}

// flatten renders every exported counter of a stats.Run into a flat
// name → value map, so golden mismatches name the exact counter.
func flatten(r *stats.Run) map[string]uint64 {
	out := make(map[string]uint64)
	v := reflect.ValueOf(*r)
	tp := v.Type()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		name := tp.Field(i).Name
		switch f.Kind() {
		case reflect.Uint64:
			out[name] = f.Uint()
		case reflect.Array:
			for j := 0; j < f.Len(); j++ {
				out[name+"."+itoa(j)] = f.Index(j).Uint()
			}
		case reflect.Struct: // TrafficWindows: fold into total+peak
			if name == "Windows" {
				out["Windows.Total"] = r.Windows.Total()
				out["Windows.Peak"] = r.Windows.Peak()
			}
		}
	}
	out["Cycles"] = uint64(r.Cycles)
	return out
}

func itoa(i int) string {
	return string(rune('0'+i/10)) + string(rune('0'+i%10))
}

func goldenPath() string { return filepath.Join("testdata", "golden_runs.json") }

// runGolden runs the cases in the given order and returns their counters
// by case name.
func runGolden(t *testing.T, cases []goldenCase) map[string]map[string]uint64 {
	t.Helper()
	got := make(map[string]map[string]uint64)
	for _, c := range cases {
		got[c.Name] = runStats(t, c)
	}
	return got
}

// TestGoldenRuns runs the cases twice and matches both passes against the
// fixtures. Every machine but the first starts on tag storage its
// predecessor released; in the reverse pass that predecessor has another
// shape — 16 processors before 4, directory before snooping, CGCT before
// the baseline — so storage not cleared on reuse shows as a mismatch.
func TestGoldenRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("golden runs are full simulations")
	}
	cases := goldenCases()
	if *updateGolden {
		data, err := json.MarshalIndent(runGolden(t, cases), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath(), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden fixtures rewritten: %s", goldenPath())
		return
	}
	data, err := os.ReadFile(goldenPath())
	if err != nil {
		t.Fatalf("missing golden fixtures (run with -update-golden to create): %v", err)
	}
	var want map[string]map[string]uint64
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	reversed := slices.Clone(cases)
	slices.Reverse(reversed)
	for _, pass := range []struct {
		name  string
		cases []goldenCase
	}{{"forward", cases}, {"reverse", reversed}} {
		got := runGolden(t, pass.cases)
		for name, wc := range want {
			gc, ok := got[name]
			if !ok {
				t.Errorf("%s pass, %s: golden case no longer runs", pass.name, name)
				continue
			}
			for counter, wv := range wc {
				if gv := gc[counter]; gv != wv {
					t.Errorf("%s pass, %s: %s = %d, want %d", pass.name, name, counter, gv, wv)
				}
			}
			for counter := range gc {
				if _, ok := wc[counter]; !ok {
					t.Errorf("%s pass, %s: counter %s missing from fixtures (re-run -update-golden?)", pass.name, name, counter)
				}
			}
		}
	}
}

// TestGoldenRepeatable: two back-to-back runs of the same configuration in
// the same process are identical — the engine keeps no hidden global state.
func TestGoldenRepeatable(t *testing.T) {
	c := goldenCase{"tpcw-cgct", "tpc-w", Options{OpsPerProc: 30_000, Seed: 9, CGCT: true}}
	a := runStats(t, c)
	b := runStats(t, c)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identical runs produced different statistics")
	}
}

// TestOracleFractionDivisor: UnnecessaryFraction divides by what the
// oracle classified. On the snooping fabric that is every broadcast; on
// the directory fabric, which broadcasts nothing, it is every home
// transaction, so a directory run reports its fraction instead of 0.
func TestOracleFractionDivisor(t *testing.T) {
	for _, c := range goldenCases() {
		if c.Name != "ocean-baseline" && c.Name != "ocean-directory" {
			continue
		}
		res, err := Run(c.Benchmark, c.Opts)
		if err != nil {
			t.Fatal(err)
		}
		switch c.Name {
		case "ocean-baseline":
			if res.Unnecessary+res.Necessary != res.Broadcasts {
				t.Errorf("%s: oracle classified %d + %d, want the %d broadcasts", c.Name, res.Unnecessary, res.Necessary, res.Broadcasts)
			}
		case "ocean-directory":
			if res.Unnecessary != 28_721 || res.Necessary != 4_382 || res.UnnecessaryFraction() != 28_721.0/33_103 {
				t.Errorf("%s: %d unnecessary, %d necessary, fraction %.4f; want 28721, 4382 and 0.8676",
					c.Name, res.Unnecessary, res.Necessary, res.UnnecessaryFraction())
			}
		}
	}
}
