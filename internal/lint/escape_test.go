package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeEscapeFixture lays out a tiny self-contained module (stdlib only, so
// the build needs no module proxy) with one annotated function that leaks
// to the heap and one that is clean.
func writeEscapeFixture(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module escfixture\n\ngo 1.22\n",
		"hot.go": `package escfixture

// Leaky violates its annotation: the slice escapes through the return.
//
//psslint:noalloc
func Leaky(n int) []int {
	buf := make([]int, n)
	return buf
}

// Sum honors its annotation: nothing leaves the stack.
//
//psslint:noalloc
func Sum(xs []int) int {
	total := 0
	for _, v := range xs {
		total += v
	}
	return total
}

// coldAlloc is unannotated; its allocation is out of scope for the gate.
func coldAlloc(n int) []int {
	return make([]int, n)
}

var _ = coldAlloc
`,
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestEscapeCheckFlagsHeapEscape is the CI-verified negative test for the
// allocation ratchet: a //psslint:noalloc function that gains a heap
// allocation must fail the gate, with the offending line, while clean
// annotated functions and unannotated allocations stay silent.
func TestEscapeCheckFlagsHeapEscape(t *testing.T) {
	dir := writeEscapeFixture(t)
	diags, funcs, err := EscapeCheck(dir, ".")
	if err != nil {
		t.Fatal(err)
	}
	if len(funcs) != 2 {
		t.Fatalf("discovered %d annotated functions, want 2: %+v", len(funcs), funcs)
	}
	if len(diags) == 0 {
		t.Fatal("EscapeCheck missed the escaping make in Leaky")
	}
	for _, d := range diags {
		if !strings.Contains(d.Message, "Leaky") {
			t.Errorf("diagnostic outside Leaky: %s", d)
		}
		if !strings.Contains(d.Pos.Filename, "hot.go") || d.Pos.Line == 0 {
			t.Errorf("diagnostic lacks an offending line: %s", d)
		}
	}
}

// TestEscapeCheckNoAnnotations: a tree without annotations is trivially
// clean and must not even invoke the compiler.
func TestEscapeCheckNoAnnotations(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module escempty\n\ngo 1.22\n",
		"a.go":   "package escempty\n\nfunc A() []int { return make([]int, 4) }\n",
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	diags, funcs, err := EscapeCheck(dir, ".")
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 || len(funcs) != 0 {
		t.Fatalf("unannotated module produced diags=%v funcs=%v", diags, funcs)
	}
}

// TestCheckNoAllocBaseline covers both ratchet directions: present entries
// pass, a dropped annotation is reported, comments and blanks are ignored.
func TestCheckNoAllocBaseline(t *testing.T) {
	dir := writeEscapeFixture(t)
	funcs, err := NoAllocFuncs(dir, ".")
	if err != nil {
		t.Fatal(err)
	}
	baseline := filepath.Join(dir, "baseline.txt")
	content := "# noalloc baseline\n\nhot.go:Leaky\nhot.go:Sum\n"
	if err := os.WriteFile(baseline, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	missing, err := CheckNoAllocBaseline(baseline, dir, funcs)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != 0 {
		t.Fatalf("baseline should be satisfied, missing: %v", missing)
	}

	content += "hot.go:Dropped\n"
	if err := os.WriteFile(baseline, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	missing, err = CheckNoAllocBaseline(baseline, dir, funcs)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != 1 || missing[0] != "hot.go:Dropped" {
		t.Fatalf("dropped annotation not reported, got: %v", missing)
	}
}

// TestNoAllocFuncsKeys pins the baseline identity format, receiver included.
func TestNoAllocFuncsKeys(t *testing.T) {
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Join(cwd, "..", "..")
	funcs, err := NoAllocFuncs(root, "./internal/synapse")
	if err != nil {
		t.Fatal(err)
	}
	want := "internal/synapse/matrix.go:(*Matrix).AccumulateSpikesRange"
	found := false
	for _, f := range funcs {
		if f.Key(root) == want {
			found = true
		}
	}
	if !found {
		t.Errorf("expected annotated %s in %v", want, funcs)
	}
}
