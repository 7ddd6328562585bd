package main

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cgct/internal/experiments"
)

// TestEnergyAndSectoringWriteCSV: -csv exports every experiment, the §6
// energy and §2 sectoring studies included.
func TestEnergyAndSectoringWriteCSV(t *testing.T) {
	csvDir, csvFailed = t.TempDir(), false
	defer func() { csvDir = "" }()
	p := experiments.Params{OpsPerProc: 2_000, Seeds: []uint64{1}, Benchmarks: []string{"ocean"}}
	printEnergy(p)
	printSectoring(p)
	if csvFailed {
		t.Fatal("CSV export reported a failure")
	}
	for _, name := range []string{"energy", "sectoring"} {
		f, err := os.Open(filepath.Join(csvDir, name+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		records, err := csv.NewReader(f).ReadAll()
		f.Close()
		if err != nil {
			t.Fatalf("%s.csv: %v", name, err)
		}
		if len(records) != 2 || records[1][0] != "ocean" {
			t.Errorf("%s.csv = %q, want a header and one ocean row", name, records)
		}
	}
}

// TestSweepParamsRejectsInvalidFlags: a benchmark name the registry does
// not know, or fewer than one seed or op, is a usage error before any
// sweep starts — not a panic inside one, and not a silent default.
func TestSweepParamsRejectsInvalidFlags(t *testing.T) {
	for _, tc := range []struct {
		ops, seeds int
		benchmarks string
		want       string
	}{
		{400, 1, "ocean,nope", `"nope"`},
		{400, 1, "ocean, tpc-h", `" tpc-h"`},
		{400, 1, "ocean,", `""`},
		{400, 0, "", "-seeds 0"},
		{400, -2, "ocean", "-seeds -2"},
		{0, 1, "", "-ops 0"},
	} {
		_, err := sweepParams(tc.ops, tc.seeds, tc.benchmarks, 0)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("sweepParams(%d, %d, %q) error = %v, want one naming %s", tc.ops, tc.seeds, tc.benchmarks, err, tc.want)
		}
	}
	p, err := sweepParams(2_000, 2, "ocean,tpc-h,micro-private", 3)
	want := experiments.Params{OpsPerProc: 2_000, Seeds: []uint64{1, 2}, Benchmarks: []string{"ocean", "tpc-h", "micro-private"}, Parallel: 3}
	if err != nil || !reflect.DeepEqual(p, want) {
		t.Fatalf("sweepParams = %+v, %v; want %+v", p, err, want)
	}
	if p, err := sweepParams(1, 1, "", 0); err != nil || p.Benchmarks != nil {
		t.Fatalf("empty -benchmarks: %+v, %v; want the default set", p, err)
	}
}

// TestSelectExperiments: -experiment resolves against the one catalog
// before any profile or CSV directory is created; "all" is the catalog
// in its print order, and an unknown name is refused with the known ones.
func TestSelectExperiments(t *testing.T) {
	all := []string{"table1", "table2", "fig6", "fig2", "fig7", "fig8", "fig9", "fig10",
		"evictions", "ablation", "fabric", "energy", "sectoring"}
	for _, tc := range []struct {
		flag    string
		want    []string
		wantErr []string
	}{
		{flag: "all", want: all},
		{flag: "fig8", want: []string{"fig8"}},
		{flag: "fig99", wantErr: []string{`"fig99"`, strings.Join(all, ",")}},
	} {
		got, err := selectExperiments(tc.flag)
		if tc.wantErr != nil {
			for _, s := range tc.wantErr {
				if err == nil || !strings.Contains(err.Error(), s) {
					t.Errorf("selectExperiments(%q) error = %v, want one naming %s", tc.flag, err, s)
				}
			}
			continue
		}
		var names []string
		for _, e := range got {
			names = append(names, e.name)
		}
		if err != nil || !reflect.DeepEqual(names, tc.want) {
			t.Errorf("selectExperiments(%q) = %v, %v; want %v", tc.flag, names, err, tc.want)
		}
	}
}
