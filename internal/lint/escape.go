package lint

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// NoAllocFunc is one //psslint:noalloc-annotated function discovered by the
// escape gate: where it lives and which source lines its declaration spans.
type NoAllocFunc struct {
	PkgPath string
	File    string // absolute path
	Name    string // display name, e.g. (*Matrix).AccumulateSpikesRange
	Start   int    // first line of the declaration (doc comment excluded)
	End     int    // last line of the body
}

// Key renders the stable identity used by the committed baseline:
// path-relative-to-dir:FuncName.
func (f NoAllocFunc) Key(dir string) string {
	rel, err := filepath.Rel(dir, f.File)
	if err != nil {
		rel = f.File
	}
	return filepath.ToSlash(rel) + ":" + f.Name
}

// NoAllocFuncs parses (without type-checking) every target package matched
// by the patterns and returns the functions carrying //psslint:noalloc.
func NoAllocFuncs(dir string, patterns ...string) ([]NoAllocFunc, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var funcs []NoAllocFunc
	for _, p := range listed {
		if p.DepOnly || p.Standard {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint: loading %s: %s", p.ImportPath, p.Error.Err)
		}
		for _, name := range p.GoFiles {
			path := filepath.Join(p.Dir, name)
			file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("lint: parsing %s: %w", path, err)
			}
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || !hasNoAllocDirective(fn.Doc) {
					continue
				}
				funcs = append(funcs, NoAllocFunc{
					PkgPath: p.ImportPath,
					File:    path,
					Name:    funcDisplayName(fn),
					Start:   fset.Position(fn.Type.Pos()).Line,
					End:     fset.Position(fn.End()).Line,
				})
			}
		}
	}
	sort.Slice(funcs, func(i, j int) bool {
		if funcs[i].File != funcs[j].File {
			return funcs[i].File < funcs[j].File
		}
		return funcs[i].Start < funcs[j].Start
	})
	return funcs, nil
}

// EscapeCheck is the compiler-backed half of the zero-alloc ratchet. It
// discovers the //psslint:noalloc functions under the patterns, recompiles
// their packages with -gcflags=-m, and reports every "escapes to heap" /
// "moved to heap" diagnostic the escape analysis places inside an annotated
// function's line range. Diagnostics elsewhere (cold paths, unannotated
// functions) are ignored — the annotation is the contract boundary.
//
// `go build` applies bare -gcflags only to the packages named on the
// command line, so dependencies come from the ordinary build cache without
// -m noise. An incremental run that recompiles nothing emits nothing —
// which is sound: unchanged inputs were already vetted by the run that
// compiled them.
func EscapeCheck(dir string, patterns ...string) ([]Diagnostic, []NoAllocFunc, error) {
	funcs, err := NoAllocFuncs(dir, patterns...)
	if err != nil {
		return nil, nil, err
	}
	if len(funcs) == 0 {
		return nil, nil, nil
	}
	pkgSet := make(map[string]bool)
	for _, f := range funcs {
		pkgSet[f.PkgPath] = true
	}
	pkgs := make([]string, 0, len(pkgSet))
	for p := range pkgSet {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)

	args := append([]string{"build", "-gcflags=-m"}, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("lint: go build -gcflags=-m: %v\n%s", err, stderr.String())
	}
	return parseEscapeOutput(dir, stderr.Bytes(), funcs), funcs, nil
}

// parseEscapeOutput extracts heap-escape diagnostics that land inside
// annotated function ranges from the compiler's -m output.
func parseEscapeOutput(dir string, out []byte, funcs []NoAllocFunc) []Diagnostic {
	var diags []Diagnostic
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.Contains(line, "escapes to heap") && !strings.Contains(line, "moved to heap") {
			continue
		}
		if strings.Contains(line, "does not escape") {
			continue
		}
		parts := strings.SplitN(line, ":", 4)
		if len(parts) < 4 {
			continue
		}
		file := strings.TrimPrefix(parts[0], "./")
		lineNo, err1 := strconv.Atoi(parts[1])
		col, err2 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil {
			continue
		}
		msg := strings.TrimSpace(parts[3])
		abs := file
		if !filepath.IsAbs(abs) {
			abs = filepath.Join(dir, file)
		}
		for _, f := range funcs {
			if f.File != abs && !strings.HasSuffix(f.File, string(filepath.Separator)+file) {
				continue
			}
			if lineNo < f.Start || lineNo > f.End {
				continue
			}
			diags = append(diags, Diagnostic{
				Pos:      token.Position{Filename: file, Line: lineNo, Column: col},
				Analyzer: "escape",
				Message:  fmt.Sprintf("//psslint:noalloc %s: %s", f.Name, msg),
			})
			break
		}
	}
	return diags
}

// CheckNoAllocBaseline verifies the committed annotation baseline: every
// entry in the file must still name an annotated function. The baseline is
// a one-way ratchet — annotations may be added freely, but removing one
// (and with it both halves of its alloc gate) requires editing the
// committed file, which shows up in review.
func CheckNoAllocBaseline(baselinePath, dir string, funcs []NoAllocFunc) ([]string, error) {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return nil, err
	}
	have := make(map[string]bool, len(funcs))
	for _, f := range funcs {
		have[f.Key(dir)] = true
	}
	var missing []string
	for _, raw := range strings.Split(string(data), "\n") {
		entry := strings.TrimSpace(raw)
		if entry == "" || strings.HasPrefix(entry, "#") {
			continue
		}
		if !have[entry] {
			missing = append(missing, entry)
		}
	}
	return missing, nil
}

// funcDisplayName renders a FuncDecl's name with its receiver, matching the
// style of compiler diagnostics: Foo, Matrix.At, (*Matrix).Row.
func funcDisplayName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		if id, ok := baseTypeName(star.X); ok {
			return "(*" + id + ")." + fn.Name.Name
		}
	}
	if id, ok := baseTypeName(t); ok {
		return id + "." + fn.Name.Name
	}
	return fn.Name.Name
}

// baseTypeName extracts the defined type name from a receiver type
// expression, tolerating generic receivers like Queue[T].
func baseTypeName(e ast.Expr) (string, bool) {
	switch t := ast.Unparen(e).(type) {
	case *ast.Ident:
		return t.Name, true
	case *ast.IndexExpr:
		return baseTypeName(t.X)
	case *ast.IndexListExpr:
		return baseTypeName(t.X)
	}
	return "", false
}
