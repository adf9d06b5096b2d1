package lint

import (
	"strings"
	"testing"
)

// checkFixture runs one analyzer over its testdata fixture package and
// fails the test on any mismatch with the `// want` expectations.
func checkFixture(t *testing.T, dir string, a *Analyzer) {
	t.Helper()
	problems, err := CheckDir(dir, a)
	if err != nil {
		t.Fatalf("CheckDir(%s): %v", dir, err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

func TestFixedRangeAnalyzer(t *testing.T) {
	checkFixture(t, "testdata/src/fixedrange", FixedRangeAnalyzer)
}

func TestDetRandAnalyzer(t *testing.T) {
	const fixturePath = "parallelspikesim/internal/lint/testdata/src/detrand"
	DetRandHotPackages[fixturePath] = true
	defer delete(DetRandHotPackages, fixturePath)
	checkFixture(t, "testdata/src/detrand", DetRandAnalyzer)
}

// TestDetRandIgnoresColdPackages proves the analyzer is scoped: the same
// fixture produces no diagnostics when its package is not registered hot.
func TestDetRandIgnoresColdPackages(t *testing.T) {
	pkg, err := LoadDir("testdata/src/detrand")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run([]*Package{pkg}, []*Analyzer{DetRandAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("cold package produced %d diagnostics: %v", len(diags), diags)
	}
}

func TestIOErrAnalyzer(t *testing.T) {
	checkFixture(t, "testdata/src/ioerr", IOErrAnalyzer)
}

func TestRCUImmutAnalyzer(t *testing.T) {
	const fixturePath = "parallelspikesim/internal/lint/testdata/src/rcuimmut"
	RCUStoreAllowed[fixturePath] = map[string]bool{"publish": true, "republish": true}
	defer delete(RCUStoreAllowed, fixturePath)
	checkFixture(t, "testdata/src/rcuimmut", RCUImmutAnalyzer)
}

// TestRCUImmutUnrestrictedStores proves the Store-site rule is scoped: the
// same fixture without an RCUStoreAllowed registration keeps its read-side
// findings but loses the swap-path one.
func TestRCUImmutUnrestrictedStores(t *testing.T) {
	pkg, err := LoadDir("testdata/src/rcuimmut")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run([]*Package{pkg}, []*Analyzer{RCUImmutAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if strings.Contains(d.Message, "sanctioned swap path") {
			t.Errorf("unregistered package produced a swap-path diagnostic: %s", d)
		}
	}
	if len(diags) == 0 {
		t.Fatal("read-side rules should fire without a Store registration")
	}
}

func TestGoLifecycleAnalyzer(t *testing.T) {
	checkFixture(t, "testdata/src/golifecycle", GoLifecycleAnalyzer)
}

func TestHotAllocAnalyzer(t *testing.T) {
	checkFixture(t, "testdata/src/hotalloc", HotAllocAnalyzer)
}

// TestSuiteCleanOnOwnPackage runs every analyzer over this package itself —
// a live example of the tree-wide gate psslint enforces in CI.
func TestSuiteCleanOnOwnPackage(t *testing.T) {
	pkgs, err := Load(".", ".")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(pkgs, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}

func TestLoadResolvesTypes(t *testing.T) {
	pkg, err := LoadDir("testdata/src/fixedrange")
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Types == nil || pkg.TypesInfo == nil || len(pkg.Files) == 0 {
		t.Fatal("loader returned an incomplete package")
	}
	if !strings.HasSuffix(pkg.PkgPath, "testdata/src/fixedrange") {
		t.Fatalf("unexpected package path %q", pkg.PkgPath)
	}
}

func TestLoadRejectsUnknownPattern(t *testing.T) {
	if _, err := Load(".", "./does-not-exist"); err == nil {
		t.Fatal("Load on a missing directory should fail")
	}
}
