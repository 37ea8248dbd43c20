package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRun(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "fast.json")
	spans := filepath.Join(dir, "spans.jsonl")
	tiny := []string{"-workload", "village", "-width", "64", "-height", "48", "-frames", "2"}
	with := func(extra ...string) []string { return append(append([]string(nil), tiny...), extra...) }

	tests := []struct {
		name     string
		args     []string
		wantCode int
		// stdout and stderr must contain these substrings.
		wantOut, wantErr string
		// file, when set, must exist afterwards and contain fileHas.
		file, fileHas string
	}{
		{"removed -parallel", with("-sweep", "-parallel", "2"), 2, "", "-parallel", "", ""},
		{"removed -renderworkers", with("-sweep", "-renderworkers", "2"), 2, "", "-renderworkers", "", ""},
		{"removed -replayworkers", with("-sweep", "-replayworkers", "2"), 2, "", "-replayworkers", "", ""},
		{"unknown spec", with("-sweep", "-specs", "bogus"), 2, "", "valid specs: pull-2k", "", ""},
		{"sweep report", with("-sweep"), 0, "workload village: 2 frames at 64x48", "", "", ""},
		{"fast manifest", with("-sweep", "-fast", "-manifest", manifest), 0, "modeled", "", manifest, `"model"`},
		{"spans", with("-sweep", "-specs", "pull-2k,l2-2m", "-spans", spans), 0, "l2-2m", "", spans, `"name":"render"`},
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
			if tt.file == "" {
				return
			}
			data, err := os.ReadFile(tt.file)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(data, []byte(tt.fileHas)) {
				t.Errorf("%s missing %q:\n%s", filepath.Base(tt.file), tt.fileHas, data)
			}
		})
	}
}
