package selfishmac_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Every fuzz target in the module must have a live pass in the
// Makefile's test-fuzz recipe, run against its own package, so the
// recipe (and the CI step that runs it) cannot drift from the targets.
func TestMakefileFuzzesEveryTarget(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	recipe := make(map[string]bool) // "FuzzX ./pkg"
	line := regexp.MustCompile(`-fuzz='\^(Fuzz\w+)\$\$'.*\s(\./\S+)$`)
	inRecipe := false
	for _, l := range strings.Split(string(makefile), "\n") {
		switch {
		case strings.HasPrefix(l, "test-fuzz:"):
			inRecipe = true
		case inRecipe && strings.HasPrefix(l, "\t"):
			if m := line.FindStringSubmatch(l); m != nil {
				recipe[m[1]+" "+m[2]] = true
			}
		default:
			inRecipe = false
		}
	}

	var targets []string
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			name := d.Name()
			if strings.HasPrefix(name, ".") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // another module
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Fuzz") {
				targets = append(targets, fn.Name.Name+" ./"+filepath.ToSlash(filepath.Dir(path)))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) == 0 {
		t.Fatal("found no fuzz targets")
	}
	for _, target := range targets {
		t.Run(strings.Fields(target)[0], func(t *testing.T) {
			if !recipe[target] {
				t.Errorf("fuzz target %s has no line in the Makefile's test-fuzz recipe", target)
			}
		})
	}
	if len(recipe) != len(targets) {
		t.Errorf("test-fuzz runs %d targets, the module has %d", len(recipe), len(targets))
	}
}
