package telemetry

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

func TestConfigHashStable(t *testing.T) {
	// Checked-in value: the hash must be stable across runs, platforms
	// and Go versions, since manifests are compared between machines.
	const want = "453ad41dabbfd00d"
	if got := ConfigHash("village", "608x448", "30"); got != want {
		t.Errorf("ConfigHash = %q, want %q", got, want)
	}
	// Separator must make part boundaries unambiguous.
	if ConfigHash("ab", "c") == ConfigHash("a", "bc") {
		t.Error("ConfigHash collides across part boundaries")
	}
	if ConfigHash() == ConfigHash("") {
		t.Error("ConfigHash conflates zero parts with one empty part")
	}
}

func TestManifestWriteJSON(t *testing.T) {
	m := NewManifest("texsim -sweep")
	if m.GoVersion != runtime.Version() || m.GOMAXPROCS < 1 {
		t.Fatalf("environment not captured: %+v", m)
	}
	m.ConfigHash = ConfigHash("village")
	m.Workload = "village"
	m.Frames = 30
	m.Specs = []string{"pull-16k", "l2-4m"}
	m.Totals = RunTotals{FrameRecords: 60, TexelRefs: 1234}
	m.Phases = []PhaseStat{{Name: "frame", Count: 2, TotalNS: 10, MeanNS: 5, MaxNS: 6, MaxTrack: "render"}}

	var sb strings.Builder
	if err := m.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"phases": [`) {
		t.Errorf("manifest has no phases list:\n%s", sb.String())
	}
	var back Manifest
	if err := json.Unmarshal([]byte(sb.String()), &back); err != nil {
		t.Fatalf("manifest is not valid JSON: %v\n%s", err, sb.String())
	}
	if back.Tool != m.Tool || back.Totals != m.Totals ||
		len(back.Phases) != 1 || back.Phases[0] != m.Phases[0] {
		t.Errorf("round trip = %+v, want %+v", back, m)
	}
}
