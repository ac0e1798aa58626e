package kncube_test

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDesignListsEveryMetric keeps DESIGN.md's metric tables in step with
// the code: every "khs_…" name quoted in the module's non-test Go source
// must appear in DESIGN.md as `name`. perfbench (a module of its own, with
// its own khs_bench_* names) and testdata fixtures are not searched.
func TestDesignListsEveryMetric(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	metric := regexp.MustCompile(`"(khs_[a-z0-9_]+)"`)
	found := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || d.Name() == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range metric.FindAllSubmatch(src, -1) {
			found++
			if !bytes.Contains(design, []byte("`"+string(m[1])+"`")) {
				t.Errorf("%s: metric %s is missing from DESIGN.md", path, m[1])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if found == 0 {
		t.Fatal("no khs_ metric names found: the walk missed the source")
	}
}
