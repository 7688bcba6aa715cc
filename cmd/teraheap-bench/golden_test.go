package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current build")

// goldens are the subcommands outside "all", each pinned to checked-in
// stdout and its exit code. "all" has its own golden, results_all.txt,
// which the CI verify job diffs.
var goldens = []struct {
	file string
	args []string
	code int
}{
	{"serve.txt", []string{"serve"}, 0},
	{"serve.csv", []string{"-csv", "serve"}, 0},
	{"chaos-serve.txt", []string{"chaos-serve"}, 0},
	{"pretenure.txt", []string{"pretenure"}, 0},
	{"pretenure.csv", []string{"-csv", "pretenure"}, 0},
	{"workers.txt", []string{"workers"}, 0},
	{"workers.csv", []string{"-csv", "workers"}, 0},
	{"chaos.txt", []string{"chaos"}, 0},
	{"chaos-region-fail.txt", []string{"-fault", "seed=1,region-fail=0.02,wb-fail=0.05,torn=0.05", "chaos"}, 0},
	// Faulted runs print FAULT in their cells, not normalized times.
	{"fig13a-fault.txt", []string{"-fault", "seed=3,dev-err=0.3,max-retries=1", "fig13a"}, 1},
}

// TestGoldenSubcommands runs each subcommand at -j 2 and compares its
// stdout byte for byte with testdata/golden. Run with -update to rewrite
// the files after an intended model change; the change that does so must
// name every golden it touched.
func TestGoldenSubcommands(t *testing.T) {
	if raceEnabled {
		t.Skip("byte-identical replay of five subcommands; the race detector adds nothing but ~10x time")
	}
	for _, g := range goldens {
		t.Run(g.file, func(t *testing.T) {
			var stdout, stderr strings.Builder
			code := run(append([]string{"-j", "2"}, g.args...), &stdout, &stderr)
			if code != g.code {
				t.Errorf("%v: exit code = %d, want %d (stderr:\n%s)", g.args, code, g.code, stderr.String())
			}
			path := filepath.Join("testdata", "golden", g.file)
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(stdout.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if got := stdout.String(); got != string(want) {
				t.Errorf("%v: stdout differs from %s\n--- got ---\n%s\n--- want ---\n%s", g.args, path, got, want)
			}
		})
	}
}
