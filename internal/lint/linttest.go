package lint

import (
	"fmt"
	"regexp"
	"strconv"
)

// wantRe matches the expectation comment syntax used in testdata fixtures:
//
//	w += 0.125 // want `raw \+= on fixed.Weight`
//
// The backquoted pattern is a regexp matched against the diagnostic
// message, mirroring golang.org/x/tools/go/analysis/analysistest.
var wantRe = regexp.MustCompile("// want `([^`]*)`")

// CheckDir loads the package at dir, runs the analyzer over it, and
// compares the diagnostics against the `// want` comments in the fixture
// sources. It returns one human-readable problem per mismatch: an
// unexpected diagnostic, a missing expected one, or a message that fails
// its pattern. An empty slice means the fixture and analyzer agree.
//
// It lives outside the _test files so that the package does not need to
// export its loader internals twice, but it is test-only machinery.
func CheckDir(dir string, a *Analyzer) ([]string, error) {
	pkg, err := LoadDir(dir)
	if err != nil {
		return nil, err
	}
	diags, err := Run([]*Package{pkg}, []*Analyzer{a})
	if err != nil {
		return nil, err
	}

	type want struct {
		re      *regexp.Regexp
		matched bool
	}
	// Expectations keyed by file:line.
	wants := make(map[string][]*want)
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					return nil, fmt.Errorf("lint: bad want pattern %q: %w", m[1], err)
				}
				pos := pkg.Fset.Position(c.Pos())
				key := pos.Filename + ":" + strconv.Itoa(pos.Line)
				wants[key] = append(wants[key], &want{re: re})
			}
		}
	}
	var problems []string
	for _, d := range diags {
		key := d.Pos.Filename + ":" + strconv.Itoa(d.Pos.Line)
		matched := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			problems = append(problems, fmt.Sprintf("unexpected diagnostic at %s: %s", key, d.Message))
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				problems = append(problems, fmt.Sprintf("missing diagnostic at %s: want match for %q", key, w.re))
			}
		}
	}
	return problems, nil
}
