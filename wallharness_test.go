package bulletfs_test

import (
	"os/exec"
	"path/filepath"
	"testing"
)

// TestWallHarnessCompiles runs go vet and go test in benchmarks/wall. The
// wall-clock harness is a Go module of its own (replace bulletfs => ../..),
// so the root module's go build, vet and test never compile it; without
// this test, a change to an internal API it uses first breaks in the
// benchmark run. It needs no network: the harness has no dependency
// outside this repository.
func TestWallHarnessCompiles(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and tests the benchmarks/wall module")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	for _, args := range [][]string{{"vet", "./..."}, {"test", "./..."}} {
		cmd := exec.Command(goBin, args...)
		cmd.Dir = filepath.Join("benchmarks", "wall")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %s in %s: %v\n%s", args[0], cmd.Dir, err, out)
		}
	}
}
