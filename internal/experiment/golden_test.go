package experiment

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden sweep results under testdata/golden")

// checkGolden compares every sweep behind rep with its committed
// Results.JSON() golden file, testdata/golden/<sweep>.json — the same
// bytes `cmd/experiments -json -out DIR` writes. The structured results
// are the specification: a change that moves any simulated number fails
// here and must regenerate the files deliberately with
// `go test ./internal/experiment -update`.
func checkGolden(t *testing.T, rep *Report) {
	t.Helper()
	for _, res := range rep.Sweeps {
		got, err := res.JSON()
		if err != nil {
			t.Fatalf("%s: %v", res.Name, err)
		}
		got = append(got, '\n')
		path := filepath.Join("testdata", "golden", res.Name+".json")
		if *update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (generate with go test ./internal/experiment -update)", res.Name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: results differ from %s (if the change is intended, regenerate with go test ./internal/experiment -update)", res.Name, path)
		}
	}
}

// TestExtPartitionSmokeGolden pins the false-suspicion smoke grid (the
// CI partition smoke) to its golden results.
func TestExtPartitionSmokeGolden(t *testing.T) {
	checkGolden(t, ExtPartitionSmokeReport())
}

// TestExtNP64SmokeGolden pins the CG.A.64 piggyback-share smoke grid to
// its golden results.
func TestExtNP64SmokeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("NP-64 grid takes a few seconds")
	}
	checkGolden(t, ExtNP64SmokeReport())
}
