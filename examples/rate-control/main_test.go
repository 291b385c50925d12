package main

import (
	"bytes"
	"os"
	"runtime"
	"testing"
)

// The example's output is pinned byte for byte in testdata/out.golden.
// A change that alters it on purpose regenerates the golden with
// `make examples-golden`. Like results/, the golden is pinned on amd64:
// other architectures may fuse multiply-adds and change the last digits.
func TestOutputMatchesGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens are pinned on amd64; FMA fusion on %s may change the last digits", runtime.GOARCH)
	}
	want, err := os.ReadFile("testdata/out.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("output differs from testdata/out.golden (regenerate with `make examples-golden` if the change is intended):\n%s", got.String())
	}
}
