package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestRun(t *testing.T) {
	dir := t.TempDir()
	table := filepath.Join(dir, "table1.txt")
	metrics := filepath.Join(dir, "m.jsonl")
	manifest := filepath.Join(dir, "m.json")

	tests := []struct {
		name     string
		args     []string
		wantCode int
		// stdout and stderr must contain these substrings.
		wantOut, wantErr string
		// file, when set, must exist afterwards and match every regexp
		// in fileHas.
		file    string
		fileHas []string
		// needs names a file the row is skipped without.
		needs string
	}{
		{name: "list", args: []string{"-exp", "list"}, wantOut: "table1"},
		{name: "unknown scale", args: []string{"-exp", "table1", "-scale", "huge"}, wantCode: 2, wantErr: `unknown scale "huge"`},
		{name: "unknown experiment", args: []string{"-exp", "table99", "-scale", "bench"}, wantCode: 2, wantErr: `unknown experiment "table99"`},
		{name: "removed model experiment", args: []string{"-exp", "model", "-scale", "bench"}, wantCode: 2, wantErr: `unknown experiment "model"`},
		{name: "removed -fast", args: []string{"-exp", "table1", "-scale", "bench", "-fast"}, wantCode: 2, wantErr: "-fast"},
		{name: "table to file", args: []string{"-exp", "table1", "-scale", "bench", "-o", table},
			wantErr: "[table1 done in", file: table, fileHas: []string{"=== Table 1: statistics"}},
		// Ablations run outside the memoized sweeps and must still reach
		// the metric stream and the manifest.
		{name: "ablation manifest", args: []string{"-exp", "ablation-sector", "-scale", "bench",
			"-metrics", metrics, "-manifest", manifest},
			wantOut: "Ablation A3", file: manifest, fileHas: []string{
				`"workload": "village/ablation-sector,city/ablation-sector"`,
				`"frames": [1-9]`, `"texel_refs": [1-9]`}},
		// A full disk must fail the run, not lose the table silently.
		{name: "unwritable output", args: []string{"-exp", "table1", "-scale", "bench", "-o", "/dev/full"},
			wantCode: 1, wantErr: "experiments: writing table1:", needs: "/dev/full"},
	}

	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.needs != "" {
				if _, err := os.Stat(tt.needs); err != nil {
					t.Skipf("%s: %v", tt.needs, err)
				}
			}
			var stdout, stderr bytes.Buffer
			if got := run(tt.args, &stdout, &stderr); got != tt.wantCode {
				t.Fatalf("run(%v) = %d, want %d\nstderr: %s", tt.args, got, tt.wantCode, stderr.String())
			}
			if !strings.Contains(stdout.String(), tt.wantOut) {
				t.Errorf("stdout missing %q:\n%s", tt.wantOut, stdout.String())
			}
			if !strings.Contains(stderr.String(), tt.wantErr) {
				t.Errorf("stderr missing %q:\n%s", tt.wantErr, stderr.String())
			}
			if tt.file == "" {
				return
			}
			data, err := os.ReadFile(tt.file)
			if err != nil {
				t.Fatal(err)
			}
			for _, re := range tt.fileHas {
				if !regexp.MustCompile(re).Match(data) {
					t.Errorf("%s does not match %q:\n%s", filepath.Base(tt.file), re, data)
				}
			}
		})
	}
}
