package main

import (
	"encoding/csv"
	"os"
	"path/filepath"
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
