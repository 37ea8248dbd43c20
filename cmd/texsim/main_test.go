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
	manifest := filepath.Join(dir, "sweep.json")
	metrics := filepath.Join(dir, "m.jsonl")
	runMetrics := filepath.Join(dir, "run.jsonl")
	csvMetrics := filepath.Join(dir, "m.csv")
	trace := filepath.Join(dir, "t.json")
	runTrace := filepath.Join(dir, "run-trace.json")
	tiny := []string{"-workload", "village", "-width", "64", "-height", "48", "-frames", "2"}
	with := func(extra ...string) []string { return append(append([]string(nil), tiny...), extra...) }

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
	}{
		{"removed -parallel", with("-sweep", "-parallel", "2"), 2, "", "-parallel", "", nil},
		{"removed -renderworkers", with("-sweep", "-renderworkers", "2"), 2, "", "-renderworkers", "", nil},
		{"removed -replayworkers", with("-sweep", "-replayworkers", "2"), 2, "", "-replayworkers", "", nil},
		{"removed -spans", with("-sweep", "-spans", filepath.Join(dir, "spans.jsonl")), 2, "", "-spans", "", nil},
		{"removed -fast", with("-sweep", "-fast"), 2, "", "-fast", "", nil},
		{"removed -reuse", with("-reuse", filepath.Join(dir, "reuse.json")), 2, "", "-reuse", "", nil},
		{"unknown workload", []string{"-workload", "bogus"}, 2, "", `unknown workload "bogus"; valid workloads: village, city, mall`, "", nil},
		{"unknown spec", with("-sweep", "-specs", "bogus"), 2, "", "valid specs: pull-2k", "", nil},
		{"specs without -sweep", with("-specs", "pull-2k"), 2, "", "-specs only applies to -sweep", "", nil},
		// The sweep's specs set their own caches, so a cache flag set
		// beside -sweep would be ignored.
		{"-l1 with -sweep", with("-sweep", "-l1", "0"), 2, "", "-l1 does not apply to -sweep", "", nil},
		{"-l2mb with -sweep", with("-sweep", "-l2mb", "4"), 2, "", "-l2mb does not apply to -sweep", "", nil},
		{"-l2tile with -sweep", with("-sweep", "-l2tile", "7"), 2, "", "-l2tile does not apply to -sweep", "", nil},
		{"-policy with -sweep", with("-sweep", "-policy", "lru"), 2, "", "-policy does not apply to -sweep", "", nil},
		{"-tlb with -sweep", with("-sweep", "-tlb", "4"), 2, "", "-tlb does not apply to -sweep", "", nil},
		{"-nosector with -sweep", with("-sweep", "-nosector"), 2, "", "-nosector does not apply to -sweep", "", nil},
		{"invalid L1", with("-l1", "0"), 1, "", `core: spec "l2": cache: invalid L1 size 0`, "", nil},
		{"invalid L2 tile", with("-l2tile", "7"), 1, "", `core: spec "l2": texture: tile sizes must be powers of two`, "", nil},
		{"sweep report", with("-sweep"), 0, "workload village: 2 frames at 64x48", "", "", nil},
		{"sweep with stats", with("-sweep", "-stats"), 0, "working set", "", "", nil},
		{"monitor", with("-sweep", "-monitor", "127.0.0.1:0"), 0, "workload village", "monitor listening on http://127.0.0.1:", "", nil},
		{"manifest", with("-sweep", "-specs", "pull-2k,l2-2m", "-manifest", manifest), 0, "l2-2m", "", manifest,
			[]string{`"phases"`, `"name": "frame"`, `"texel_refs": [1-9]`}},
		{"metrics", with("-sweep", "-specs", "pull-2k,l2-2m", "-metrics", metrics), 0, "l2-2m", "", metrics,
			[]string{`"spec":"l2-2m","frame":1,`}},
		// Without -sweep the stream holds one unlabelled record per frame.
		{"metrics without -sweep", with("-metrics", runMetrics), 0, "L1 cache", "", runMetrics,
			[]string{`^\{"workload":"village","spec":"","frame":0,[^\n]*\}\n\{"workload":"village","spec":"","frame":1,[^\n]*\}\n$`}},
		{"metrics as csv", with("-sweep", "-specs", "pull-2k,l2-2m", "-metrics", csvMetrics), 0, "l2-2m", "", csvMetrics,
			[]string{`^workload,spec,frame,pixels,`, `\nvillage,l2-2m,1,[0-9]`}},
		{"trace", with("-sweep", "-trace", trace), 0, "textrace report", "", trace,
			[]string{`"thread_name","args":\{"name":"render"\}`, `"ph":"C",[^}]*"name":"replayed/`}},
		// A single configuration runs on the exact engine as a sweep of one spec.
		{"trace without -sweep", with("-trace", runTrace), 0, "textrace report", "", runTrace,
			[]string{`"thread_name","args":\{"name":"render"\}`, `"ph":"C",[^}]*"name":"replayed/l2"`}},
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
			if strings.Contains(stderr.String(), "core: core:") {
				t.Errorf("stderr repeats its package prefix:\n%s", stderr.String())
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
