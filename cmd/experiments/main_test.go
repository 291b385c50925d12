package main

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestRunListsExperiments(t *testing.T) {
	if err := run(context.Background(), []string{"-list"}); err != nil {
		t.Fatalf("-list failed: %v", err)
	}
}

func TestRunWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	// T1 is pure configuration; A4 exercises randomized checks; both are
	// fast even at the quick profile.
	if err := run(context.Background(), []string{"-quick", "-out", dir, "-only", "T1,A4"}); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, name := range []string{"t1.txt", "a4.txt"} {
		body, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("missing artifact %s: %v", name, err)
		}
		if len(body) == 0 {
			t.Fatalf("artifact %s is empty", name)
		}
	}
	t1, _ := os.ReadFile(filepath.Join(dir, "t1.txt"))
	if !strings.Contains(string(t1), "8184 bits") {
		t.Errorf("t1.txt missing Table I content")
	}
}

func TestRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	if err := run(context.Background(), []string{"-quick", "-out", dir, "-only", "T1", "-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("missing profile %s: %v", p, err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}

func TestRunUnknownFlag(t *testing.T) {
	if err := run(context.Background(), []string{"-definitely-not-a-flag"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestRunOnlyFilterSkipsOthers(t *testing.T) {
	dir := t.TempDir()
	if err := run(context.Background(), []string{"-quick", "-out", dir, "-only", "T1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "a4.txt")); !os.IsNotExist(err) {
		t.Error("filter did not skip A4")
	}
}

// An -only list with an unknown ID must fail before anything runs or is
// written, and name the IDs that do exist.
func TestRunOnlyUnknownIDFails(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	err := run(context.Background(), []string{"-quick", "-out", dir, "-only", "T1,ZZ"})
	if err == nil {
		t.Fatal("-only with an unknown ID succeeded")
	}
	for _, want := range []string{`"ZZ"`, "T1", "D4"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
	if _, statErr := os.Stat(dir); !os.IsNotExist(statErr) {
		t.Error("output directory created for a rejected -only list")
	}
}

// TestJobsByteIdentical is the determinism contract of the -jobs flag:
// the artifact files a parallel run writes must be byte-identical to the
// serial run's. T1 is static, A4 draws from derived RNG streams, and F2
// exercises the figure pipeline's worker fan-out.
func TestJobsByteIdentical(t *testing.T) {
	serial := t.TempDir()
	parallel := t.TempDir()
	if err := run(context.Background(), []string{"-quick", "-jobs", "1", "-out", serial, "-only", "T1,A4,F2"}); err != nil {
		t.Fatalf("serial run: %v", err)
	}
	if err := run(context.Background(), []string{"-quick", "-jobs", "4", "-out", parallel, "-only", "T1,A4,F2"}); err != nil {
		t.Fatalf("parallel run: %v", err)
	}
	names, err := os.ReadDir(serial)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("serial run wrote no artifacts")
	}
	for _, e := range names {
		want, err := os.ReadFile(filepath.Join(serial, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(parallel, e.Name()))
		if err != nil {
			t.Fatalf("parallel run missing %s: %v", e.Name(), err)
		}
		if string(got) != string(want) {
			t.Errorf("%s differs between -jobs 1 and -jobs 4", e.Name())
		}
	}
}

func TestRunCreatesOutputDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "results")
	if err := run(context.Background(), []string{"-quick", "-out", dir, "-only", "T1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "t1.txt")); err != nil {
		t.Fatalf("nested output dir not created: %v", err)
	}
}

// TestResultsMatchCommitted is the golden-artifact check: the full
// paper-profile registry at the default seed must write exactly the
// files committed under results/, byte for byte. A change that alters an
// output on purpose regenerates results/ with `make experiments` in the
// same commit. The run costs a few CPU-seconds, so it skips under -short
// and -race. The goldens are pinned on amd64: other architectures may fuse
// multiply-adds (FMA) and change the last printed digits.
func TestResultsMatchCommitted(t *testing.T) {
	if testing.Short() {
		t.Skip("full paper registry: skipped under -short")
	}
	if raceEnabled {
		t.Skip("full paper registry: skipped under -race")
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens are pinned on amd64; FMA fusion on %s may change the last digits", runtime.GOARCH)
	}
	const golden = "../../results"
	dir := t.TempDir()
	if err := run(context.Background(), []string{"-jobs", "2", "-out", dir}); err != nil {
		t.Fatalf("run: %v", err)
	}
	want := readDir(t, golden)
	got := readDir(t, dir)
	for name, body := range want {
		g, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s: committed but not written", name)
		case g != body:
			t.Errorf("%s differs from the committed golden (regenerate with `make experiments` if the change is intended)", name)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: written but not committed under results/", name)
		}
	}
}

// readDir returns every regular file directly under dir, by name.
func readDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		body, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(body)
	}
	return files
}
