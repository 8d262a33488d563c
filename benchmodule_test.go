package midas_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestBenchModule keeps the wall-clock benchmark under tier-1. bench/ is
// a module of its own (frozen between benchmark PRs, `replace`d onto
// this one), so `go test ./...` never compiles it and a change to an
// internal/ API it imports would surface only when the pipeline's
// benchmark fails to build. Always build it; unless -short, also run
// its toy-size smoke test (all four workloads, every answer checked).
func TestBenchModule(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	run := func(args ...string) {
		t.Helper()
		cmd := exec.Command(goBin, args...)
		cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local") // as bench/run.sh: never fetch a toolchain
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %v: %v\n%s", args, err, out)
		}
	}
	run("build", "-C", "bench", "-o", filepath.Join(t.TempDir(), "midas-bench"), ".")
	if testing.Short() {
		return // it builds; the smoke test takes ~10 s
	}
	run("test", "-C", "bench", "-count=1", ".")
}
