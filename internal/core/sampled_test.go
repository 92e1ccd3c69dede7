package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"varsim/internal/config"
)

var update = flag.Bool("update", false, "rewrite the series files under testdata")

// TestSampleRunSeriesGolden pins the interval series of one sampled run
// on each core, byte for byte as varsim -series-csv writes it: its
// columns, their order and every reading. Sampling reads nothing the
// simulation does, so only a model change may move these files
// (-update rewrites them).
func TestSampleRunSeriesGolden(t *testing.T) {
	for _, proc := range []config.ProcessorKind{config.SimpleProc, config.OOOProc} {
		t.Run(proc.String(), func(t *testing.T) {
			cfg := config.Default()
			cfg.NumCPUs, cfg.Processor = 4, proc
			ck, err := NewCheckpoint(cfg, "oltp", 1, 1, 60)
			if err != nil {
				t.Fatal(err)
			}
			_, ts, err := SampleRun(ck, 40, 7, 20_000)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := ts.WriteCSV(&got); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "series_"+proc.String()+".csv")
			if *update {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("series differs from %s:\n got %s\nwant %s", path, got.Bytes(), want)
			}
		})
	}
}
