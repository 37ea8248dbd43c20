package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"texcache/internal/core"
)

// manifest identifies a run: the machine, the toolchain, the source tree,
// the input and how much work its streams carried. It is printed as the
// line before the result.
type manifest struct {
	Tool         string         `json:"tool"`
	Workload     string         `json:"workload"`
	Traced       bool           `json:"traced"`
	Seed         int64          `json:"seed"`
	NProc        int            `json:"nproc"`
	GOMAXPROCS   int            `json:"gomaxprocs"`
	CPUModel     string         `json:"cpu_model"`
	GoVersion    string         `json:"go_version"`
	Commit       string         `json:"commit"`
	SourceSHA256 string         `json:"source_sha256"`
	Scale        scale          `json:"scale"`
	Streams      []streamTotals `json:"streams"`
}

// streamTotals is one rendered stream's size and the default spec's
// traffic on it.
type streamTotals struct {
	Stream    string `json:"stream"`
	Spec      string `json:"spec"`
	Refs      int64  `json:"refs"`
	Pixels    int64  `json:"pixels"`
	L1Misses  int64  `json:"l1_misses"`
	HostBytes int64  `json:"host_bytes"`
}

// streamOf reads a stream's totals from an op's output.
func streamOf(stream string, specs []core.CacheSpec, out opOutput) streamTotals {
	st := streamTotals{Stream: stream, Refs: out.refs, Pixels: out.pixels}
	for i, s := range specs {
		if s.Name == defaultSpec().Name {
			st.Spec = s.Name
			st.L1Misses = out.results[i].Totals.L1.Misses
			st.HostBytes = out.results[i].Totals.HostBytes
		}
	}
	return st
}

func newManifest(root, workloadName string, seed int64, traced bool, sc scale, streams []streamTotals) (manifest, error) {
	digest, err := sourceDigest(root)
	if err != nil {
		return manifest{}, fmt.Errorf("manifest: %w", err)
	}
	m := manifest{
		Tool:         "texbench",
		Workload:     workloadName,
		Traced:       traced,
		Seed:         seed,
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		CPUModel:     cpuModel(),
		GoVersion:    runtime.Version(),
		Commit:       commit(root),
		SourceSHA256: digest,
		Scale:        sc,
		Streams:      streams,
	}
	return m, m.validate()
}

// validate rejects a manifest with a field left zero or empty: every
// figure is measured, none is zero by omission.
func (m manifest) validate() error {
	if m.NProc <= 0 || m.GOMAXPROCS <= 0 || m.CPUModel == "" || m.GoVersion == "" ||
		m.Commit == "" || m.SourceSHA256 == "" || len(m.Streams) == 0 {
		return fmt.Errorf("manifest: empty field in %+v", m)
	}
	for _, s := range m.Streams {
		if s.Spec == "" || s.Refs <= 0 || s.Pixels <= 0 || s.L1Misses <= 0 || s.HostBytes <= 0 {
			return fmt.Errorf("manifest: stream %q has a zero total: %+v", s.Stream, s)
		}
	}
	return nil
}

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown: " + err.Error()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown: no model name in /proc/cpuinfo"
}

// commit names the checkout's git commit. The benchmark also runs from
// exported trees with no repository, and then says so; the source digest
// identifies the tree either way.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none: not a git checkout"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown: git rev-parse: " + err.Error()
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the checkout's Go sources, module files and the
// golden file — each path and its contents, in path order — skipping dot
// directories such as .git and the build directory.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "golden.json" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
