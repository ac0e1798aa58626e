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

// TestDocsNameExistingFiles keeps the prose docs from naming Go files that
// no longer exist: every backquoted `*.go` name in DESIGN.md, README.md or
// EXPERIMENTS.md must match a file in the repository, by its path from
// the root when it has a directory part and by its base name otherwise.
func TestDocsNameExistingFiles(t *testing.T) {
	paths, bases := map[string]bool{}, map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		paths[filepath.ToSlash(path)] = true
		bases[d.Name()] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	goName := regexp.MustCompile("`([\\w./-]+\\.go)`")
	found := 0
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range goName.FindAllSubmatch(text, -1) {
			found++
			name := string(m[1])
			ok := bases[name]
			if strings.Contains(name, "/") {
				ok = paths[name]
			}
			if !ok {
				t.Errorf("%s names `%s`, which is not a file in the repository", doc, name)
			}
		}
	}
	if found == 0 {
		t.Fatal("no backquoted Go file names found: the pattern missed the docs")
	}
}
