package lint

import (
	"strings"
	"testing"
)

// checkFixture type-checks one in-memory file and runs the given analyzers.
func checkFixture(t *testing.T, name, src string, as ...*Analyzer) []Diagnostic {
	t.Helper()
	pkg, err := CheckSource(name, map[string]string{name + ".go": src})
	if err != nil {
		t.Fatalf("fixture does not type-check: %v", err)
	}
	return Run([]*Package{pkg}, as)
}

func TestIgnoreDirectives(t *testing.T) {
	src := `package fix

import "time"

func sameLine() time.Time {
	return time.Now() //texlint:ignore determinism used only for log timestamps
}

func lineAbove() time.Time {
	//texlint:ignore determinism
	return time.Now()
}

func ignoreAll() time.Time {
	//texlint:ignore all
	return time.Now()
}

func wrongAnalyzer() time.Time {
	//texlint:ignore errcheck
	return time.Now()
}

func commaList() time.Time {
	//texlint:ignore errcheck,determinism startup banner only
	return time.Now()
}

func unsuppressed() time.Time {
	return time.Now()
}
`
	diags := checkFixture(t, "ignores", src, Determinism)
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2 (wrongAnalyzer + unsuppressed): %v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Analyzer != "determinism" {
			t.Errorf("unexpected analyzer %q", d.Analyzer)
		}
	}
}

func TestDiagnosticsSortedAndFormatted(t *testing.T) {
	src := `package fix

import "time"

type s struct{ hostBytes int32 }

func b(x *s, n int32) {
	x.hostBytes += n
}

func a() time.Time {
	return time.Now()
}
`
	diags := checkFixture(t, "sorted", src, Determinism, Counterwidth)
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2: %v", len(diags), diags)
	}
	if diags[0].Pos.Line >= diags[1].Pos.Line {
		t.Errorf("diagnostics not sorted by line: %d then %d", diags[0].Pos.Line, diags[1].Pos.Line)
	}
	got := diags[0].String()
	if !strings.Contains(got, "sorted.go:8: [counterwidth]") {
		t.Errorf("String() = %q, want file:line: [analyzer] form", got)
	}
}

func TestAllHaveNamesAndDocs(t *testing.T) {
	seen := make(map[string]bool)
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v incomplete", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	if len(seen) < 5 {
		t.Errorf("suite has %d analyzers, want at least 5", len(seen))
	}
}
