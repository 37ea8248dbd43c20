package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// chdir moves the process into dir for the rest of the test: texlint
// resolves its module and patterns against the working directory.
func chdir(t *testing.T, dir string) {
	t.Helper()
	prev, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(prev); err != nil {
			t.Fatal(err)
		}
	})
}

func TestRun(t *testing.T) {
	// A two-package module: a hot function in a calls an unannotated
	// function in b, which hotalloc reports only if b is known to be
	// part of the module.
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module fixmod\n\ngo 1.22\n",
		"a/a.go": `package a

import "fixmod/b"

// Hot is the per-texel path.
//
//texlint:hotpath
func Hot(x int) int { return b.Cold(x) }
`,
		"b/b.go": `package b

// Cold is not annotated hot.
func Cold(x int) int { return x + 1 }
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	chdir(t, dir)

	tests := []struct {
		name     string
		args     []string
		wantCode int
		// stdout and stderr must contain these substrings.
		wantOut, wantErr string
	}{
		{"list", []string{"-list"}, 0, "globalmut", ""},
		{"whole module", []string{"./..."}, 1, "a/a.go:8: [hotalloc] Hot is reachable from a hot path and calls b.Cold", ""},
		// Naming only a must not hide b from the module facts.
		{"named package keeps module facts", []string{"-only", "hotalloc", "./a"}, 1, "calls b.Cold, which is not annotated", ""},
		{"findings only for named packages", []string{"./b"}, 0, "", ""},
		{"no packages match", []string{"./nosuch"}, 2, "", "no packages match ./nosuch"},
		{"removed -analyzers", []string{"-analyzers", "hotalloc", "./..."}, 2, "", "-analyzers"},
		{"removed -baseline", []string{"-baseline", "x", "./..."}, 2, "", "-baseline"},
		{"removed -write-baseline", []string{"-write-baseline", "x", "./..."}, 2, "", "-write-baseline"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tt.args, &stdout, &stderr); got != tt.wantCode {
				t.Fatalf("run(%v) = %d, want %d\nstdout: %s\nstderr: %s", tt.args, got, tt.wantCode, stdout.String(), stderr.String())
			}
			if !strings.Contains(stdout.String(), tt.wantOut) {
				t.Errorf("stdout missing %q:\n%s", tt.wantOut, stdout.String())
			}
			if !strings.Contains(stderr.String(), tt.wantErr) {
				t.Errorf("stderr missing %q:\n%s", tt.wantErr, stderr.String())
			}
		})
	}
}
