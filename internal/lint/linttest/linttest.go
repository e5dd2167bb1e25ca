// Package linttest runs a lint.Analyzer over a testdata package and
// checks its diagnostics against // want "regexp" comments, in the
// shape of golang.org/x/tools/go/analysis/analysistest. A want comment
// expects one diagnostic on its own line whose message matches the
// quoted regular expression; several expectations may share a line:
//
//	buf := make([]int64, n) // want `heap allocation` `escapes`
//
// Diagnostics with no matching expectation, and expectations no
// diagnostic satisfied, both fail the test.
package linttest

import (
	"fmt"
	"go/importer"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"elastichtap/internal/lint"
)

// wantRE captures the backquoted or double-quoted patterns of a want
// comment.
var wantRE = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	met     bool
}

// Run analyzes testdata/src/<pkgpath> under dir with the analyzer and
// matches diagnostics against the package's want comments.
//
//htap:api each analyzer's test drives its testdata through it
func Run(t *testing.T, dir string, a *lint.Analyzer, pkgpath string) {
	t.Helper()
	pkgdir := filepath.Join(dir, "testdata", "src", pkgpath)
	entries, err := os.ReadDir(pkgdir)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(pkgdir, e.Name()))
		}
	}
	if len(files) == 0 {
		t.Fatalf("linttest: no Go files in %s", pkgdir)
	}
	sort.Strings(files)

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	pkg, err := lint.Check(fset, imp, pkgpath, pkgdir, files)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}

	expects, err := collectWants(files)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}

	findings, err := pkg.Run([]*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	for _, f := range findings {
		if !claim(expects, f) {
			t.Errorf("unexpected diagnostic: %s", f)
		}
	}
	for _, e := range expects {
		if !e.met {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", e.file, e.line, e.pattern)
		}
	}
}

// claim marks the first unmet expectation on the finding's line whose
// pattern matches, reporting whether one existed.
func claim(expects []*expectation, f lint.Finding) bool {
	base := filepath.Base(f.Pos.Filename)
	for _, e := range expects {
		if e.met || e.file != base || e.line != f.Pos.Line {
			continue
		}
		if e.pattern.MatchString(f.Message) {
			e.met = true
			return true
		}
	}
	return false
}

// collectWants scans the files for // want comments. It works on raw
// lines rather than the AST so expectations can sit on any line,
// including inside comment-only regions.
func collectWants(files []string) ([]*expectation, error) {
	var out []*expectation
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		base := filepath.Base(path)
		for i, line := range strings.Split(string(data), "\n") {
			idx := strings.Index(line, "// want ")
			if idx < 0 {
				continue
			}
			rest := line[idx+len("// want "):]
			matches := wantRE.FindAllStringSubmatch(rest, -1)
			if len(matches) == 0 {
				return nil, fmt.Errorf("%s:%d: malformed want comment", base, i+1)
			}
			for _, m := range matches {
				pat := m[1]
				if pat == "" {
					pat = m[2]
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want pattern %q: %v", base, i+1, pat, err)
				}
				out = append(out, &expectation{file: base, line: i + 1, pattern: re})
			}
		}
	}
	return out, nil
}
