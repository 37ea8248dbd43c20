package main

import (
	"strings"
	"testing"

	"texcache/internal/lint"
)

func names(as []*lint.Analyzer) []string {
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = a.Name
	}
	return out
}

func TestSelectAnalyzersOnly(t *testing.T) {
	got, err := selectAnalyzers(lint.All(), "mapiter,globalmut", "")
	if err != nil {
		t.Fatal(err)
	}
	// Registration order, not flag order, so runs are deterministic.
	if g := strings.Join(names(got), ","); g != "globalmut,mapiter" {
		t.Errorf("selected %q, want globalmut,mapiter", g)
	}
}

func TestSelectAnalyzersSkip(t *testing.T) {
	all := lint.All()
	got, err := selectAnalyzers(all, "", "mapiter")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(all)-1 {
		t.Fatalf("skip removed %d analyzers, want 1", len(all)-len(got))
	}
	for _, a := range got {
		if a.Name == "mapiter" {
			t.Error("skipped analyzer still selected")
		}
	}
}

func TestSelectAnalyzersOnlyAndSkipCompose(t *testing.T) {
	got, err := selectAnalyzers(lint.All(), "globalmut,hotalloc", "hotalloc")
	if err != nil {
		t.Fatal(err)
	}
	if g := strings.Join(names(got), ","); g != "globalmut" {
		t.Errorf("selected %q, want globalmut", g)
	}
}

func TestSelectAnalyzersUnknownName(t *testing.T) {
	for _, flags := range [][2]string{{"nosuch", ""}, {"", "nosuch"}} {
		_, err := selectAnalyzers(lint.All(), flags[0], flags[1])
		if err == nil {
			t.Fatalf("unknown name in %v accepted", flags)
		}
		// The usage error must list every registered analyzer.
		for _, a := range lint.All() {
			if !strings.Contains(err.Error(), a.Name) {
				t.Errorf("error %q does not list registered analyzer %s", err, a.Name)
			}
		}
	}
}

func TestSelectAnalyzersEmptySelection(t *testing.T) {
	if _, err := selectAnalyzers(lint.All(), "mapiter", "mapiter"); err == nil {
		t.Error("empty selection accepted")
	}
}

func TestSelectAnalyzersDefaultIsAll(t *testing.T) {
	got, err := selectAnalyzers(lint.All(), "", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(lint.All()) {
		t.Errorf("default selection has %d analyzers, want %d", len(got), len(lint.All()))
	}
}
