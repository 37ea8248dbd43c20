package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// wallClockFixture reads the wall clock, which the determinism analyzer
// forbids everywhere the config does not waive it.
const wallClockFixture = `package fx

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`

func checkWaived(t *testing.T, path string, cfg *FileConfig) []Diagnostic {
	t.Helper()
	pkg, err := CheckSource(path, map[string]string{"fx.go": wallClockFixture})
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunConfigured([]*Package{pkg}, []*Analyzer{Determinism}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

// TestRunConfiguredRejectsUnregisteredWaiver: a FileConfig built in code
// (not via ParseConfig) with a typo'd analyzer name must be an error, not
// a waiver that silently applies to nothing.
func TestRunConfiguredRejectsUnregisteredWaiver(t *testing.T) {
	pkg, err := CheckSource("texcache/internal/core", map[string]string{"fx.go": wallClockFixture})
	if err != nil {
		t.Fatal(err)
	}
	cfg := &FileConfig{Allow: map[string][]string{
		"determinsim": {"texcache/internal/core"}, // note the typo
	}}
	if _, err := RunConfigured([]*Package{pkg}, []*Analyzer{Determinism}, cfg); err == nil {
		t.Fatal("unregistered waived analyzer name accepted")
	} else if !strings.Contains(err.Error(), "determinsim") {
		t.Errorf("error %q does not name the offending analyzer", err)
	}
}

// TestConfigWaivesAllowlistedPackage: the same wall-clock-reading source
// is clean at an allowlisted import path and still fires anywhere else —
// the waiver is package-scoped, not analyzer-wide.
func TestConfigWaivesAllowlistedPackage(t *testing.T) {
	cfg := &FileConfig{Allow: map[string][]string{
		"determinism": {"texcache/internal/telemetry"},
	}}
	if diags := checkWaived(t, "texcache/internal/telemetry", cfg); len(diags) != 0 {
		t.Errorf("allowlisted package still flagged: %v", diags)
	}
	diags := checkWaived(t, "texcache/internal/core", cfg)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "time.Now") {
		t.Errorf("non-allowlisted package not flagged: %v", diags)
	}
}

func TestNilConfigAllowsNothing(t *testing.T) {
	if diags := checkWaived(t, "texcache/internal/telemetry", nil); len(diags) != 1 {
		t.Errorf("nil config waived the finding: %v", diags)
	}
	var cfg *FileConfig
	if cfg.Allows("determinism", "any") {
		t.Error("nil config Allows returned true")
	}
}

func TestParseConfigRejectsUnknownAnalyzer(t *testing.T) {
	if _, err := ParseConfig([]byte(`{"allow":{"nosuch":["a"]}}`)); err == nil {
		t.Error("unknown analyzer name accepted")
	}
	if _, err := ParseConfig([]byte(`{bad json`)); err == nil {
		t.Error("malformed JSON accepted")
	}
	cfg, err := ParseConfig([]byte(`{"allow":{"determinism":["x"]}}`))
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Allows("determinism", "x") || cfg.Allows("determinism", "y") ||
		cfg.Allows("hotpath", "x") {
		t.Errorf("Allows misbehaves: %+v", cfg)
	}
}

func TestLoadConfig(t *testing.T) {
	dir := t.TempDir()
	cfg, err := LoadConfig(dir)
	if err != nil || cfg != nil {
		t.Errorf("missing file: cfg=%v err=%v, want nil/nil", cfg, err)
	}
	path := filepath.Join(dir, ConfigFile)
	if err := os.WriteFile(path, []byte(`{"allow":{"determinism":["p"]}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err = LoadConfig(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Allows("determinism", "p") {
		t.Error("loaded config does not allow configured package")
	}
}

// TestModuleConfigMatchesPolicy pins the checked-in waiver file: only the
// telemetry package may be waived, and only for determinism. Widening the
// file means consciously editing this test.
func TestModuleConfigMatchesPolicy(t *testing.T) {
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadConfig(root)
	if err != nil {
		t.Fatal(err)
	}
	if cfg == nil {
		t.Fatal("module has no texlint.conf.json")
	}
	if len(cfg.Allow) != 1 ||
		len(cfg.Allow["determinism"]) != 1 ||
		cfg.Allow["determinism"][0] != "texcache/internal/telemetry" {
		t.Errorf("waiver file widened beyond the telemetry determinism waiver: %+v", cfg.Allow)
	}
}
