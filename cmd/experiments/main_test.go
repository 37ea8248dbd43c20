package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRun(t *testing.T) {
	table := filepath.Join(t.TempDir(), "table1.txt")

	tests := []struct {
		name     string
		args     []string
		wantCode int
		// stdout and stderr must contain these substrings.
		wantOut, wantErr string
		// file, when set, must exist afterwards and contain fileHas.
		file, fileHas string
		// needs names a file the row is skipped without.
		needs string
	}{
		{name: "list", args: []string{"-exp", "list"}, wantOut: "table1"},
		{name: "unknown scale", args: []string{"-exp", "table1", "-scale", "huge"}, wantCode: 2, wantErr: `unknown scale "huge"`},
		{name: "unknown experiment", args: []string{"-exp", "table99", "-scale", "bench"}, wantCode: 2, wantErr: `unknown experiment "table99"`},
		{name: "table to file", args: []string{"-exp", "table1", "-scale", "bench", "-o", table},
			wantErr: "[table1 done in", file: table, fileHas: "=== Table 1: statistics"},
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
			if !strings.Contains(string(data), tt.fileHas) {
				t.Errorf("%s missing %q:\n%s", filepath.Base(tt.file), tt.fileHas, data)
			}
		})
	}
}
