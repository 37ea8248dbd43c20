package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"texcache/internal/trace"
)

func TestRun(t *testing.T) {
	dir := t.TempDir()
	village := filepath.Join(dir, "village.trace")

	// A header-only trace: valid, but no frames, pixels or references.
	empty := filepath.Join(dir, "empty.trace")
	if err := os.WriteFile(empty, []byte("TXTR\x01"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A stream cut right after an opcode: corrupt, not a clean end.
	cut := filepath.Join(dir, "cut.trace")
	if err := os.WriteFile(cut, []byte("TXTR\x01\x01\x02"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A well-formed stream whose texture id no Village texture has.
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	tw.BeginFrame()
	tw.Texel(1<<20, 0, 0, 0)
	tw.EndFrame(1)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	hostile := filepath.Join(dir, "hostile.trace")
	if err := os.WriteFile(hostile, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	tests := []struct {
		name     string
		args     []string
		wantCode int
		// stdout and stderr must contain these substrings, and stdout
		// must not contain notOut unless it is empty.
		wantOut, wantErr, notOut string
	}{
		{"record", []string{"record", "-workload", "village", "-width", "64", "-height", "48",
			"-frames", "2", "-o", village}, 0, "recorded 2 frames of village", "", ""},
		{"info", []string{"info", village}, 0, "refs/pixel", "", ""},
		{"replay", []string{"replay", "-workload", "village", village}, 0, "MB/frame", "", ""},
		{"replay without a TLB", []string{"replay", "-tlb", "0", village}, 0, "MB/frame", "", "TLB"},
		{"info header-only", []string{"info", empty}, 0, "0 frames, 0 texel references", "", ""},
		{"replay header-only", []string{"replay", empty}, 0, "replayed 0 frames", "", ""},
		{"info truncated", []string{"info", cut}, 1, "", cut + ": trace: bad uvarint at byte 6", ""},
		{"replay truncated", []string{"replay", cut}, 1, "", cut + ": core: replay: trace: bad uvarint at byte 6", ""},
		{"replay out-of-range texture", []string{"replay", hostile}, 1, "", hostile + ": core: replay: invalid reference", ""},
		{"unknown workload", []string{"replay", "-workload", "bogus", village}, 2, "", `unknown workload "bogus"`, ""},
		{"removed spans", []string{"spans", "run.jsonl"}, 2, "", "usage: tracetool record|info|replay", ""},
		{"unknown subcommand", []string{"bogus"}, 2, "", "usage:", ""},
		{"no subcommand", nil, 2, "", "usage:", ""},
	}

	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
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
			if tt.notOut != "" && strings.Contains(stdout.String(), tt.notOut) {
				t.Errorf("stdout prints %q:\n%s", tt.notOut, stdout.String())
			}
			// No ratio may print over an empty denominator.
			for _, bad := range []string{"NaN", "Inf"} {
				if strings.Contains(stdout.String(), bad) {
					t.Errorf("stdout prints %s:\n%s", bad, stdout.String())
				}
			}
		})
	}
}
