package lint

import (
	"go/types"
	"testing"
)

// flowFixture type-checks one in-memory file and returns its package and
// computed facts.
func flowFixture(t *testing.T, src string) (*Package, *FlowFacts) {
	t.Helper()
	pkg, err := CheckSource("flowfix", map[string]string{"flowfix.go": src})
	if err != nil {
		t.Fatalf("fixture does not type-check: %v", err)
	}
	return pkg, CollectFacts([]*Package{pkg}).Flow
}

func lookupFunc(t *testing.T, pkg *Package, name string) *types.Func {
	t.Helper()
	obj := pkg.Types.Scope().Lookup(name)
	fn, ok := obj.(*types.Func)
	if !ok {
		t.Fatalf("function %s not found (got %v)", name, obj)
	}
	return fn
}

func TestFlowFactsMapOrderAndSinks(t *testing.T) {
	pkg, flow := flowFixture(t, `package flowfix

import (
	"fmt"
	"io"
	"sort"
)

func keysOf(m map[string]int) []string {
	out := []string{}
	for k := range m {
		out = append(out, k)
	}
	return out
}

func sortedKeysOf(m map[string]int) []string {
	out := keysOf(m)
	sort.Strings(out)
	return out
}

// Only the first result carries map order; the error stays clean.
func keysAndErr(m map[string]int) ([]string, error) {
	return keysOf(m), nil
}

func emitAll(vs []string) {
	for _, v := range vs {
		fmt.Println(v)
	}
}

func passesThrough(vs []string) { emitAll(vs) }

// Every argument of a sink call is sink-bound, not only the first
// parameter-derived one.
func printf(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format, args...)
}

// label and args are printf's trailing variadic arguments.
func labelled(w io.Writer, label string, args ...any) {
	printf(w, "%s: %v\n", label, args)
}
`)
	if got := flow.MapOrdered[lookupFunc(t, pkg, "keysOf")]; !got[0] {
		t.Errorf("keysOf result 0 not marked map-ordered: %v", got)
	}
	if got := flow.MapOrdered[lookupFunc(t, pkg, "sortedKeysOf")]; got[0] {
		t.Errorf("sortedKeysOf marked map-ordered despite the sort: %v", got)
	}
	got := flow.MapOrdered[lookupFunc(t, pkg, "keysAndErr")]
	if !got[0] || got[1] {
		t.Errorf("keysAndErr map-ordered results = %v, want only index 0", got)
	}
	if !flow.ParamSinks[lookupFunc(t, pkg, "emitAll")][0] {
		t.Errorf("emitAll param 0 not marked as sink-bound")
	}
	if !flow.ParamSinks[lookupFunc(t, pkg, "passesThrough")][0] {
		t.Errorf("passesThrough param 0 not marked as sink-bound (needs fixpoint)")
	}
	for _, fn := range []string{"printf", "labelled"} {
		if got := flow.ParamSinks[lookupFunc(t, pkg, fn)]; !got[0] || !got[1] || !got[2] {
			t.Errorf("%s sink-bound params = %v, want 0, 1 and 2", fn, got)
		}
	}
}
