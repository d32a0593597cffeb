package api

import (
	"testing"
	"time"
)

func TestParseLatencyObjectives(t *testing.T) {
	got, err := ParseLatencyObjectives("default=100ms, similar=50ms,infer=2s")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"default": 100 * time.Millisecond,
		"similar": 50 * time.Millisecond,
		"infer":   2 * time.Second,
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for k, d := range want {
		if got[k] != d {
			t.Fatalf("objective %s = %v, want %v", k, got[k], d)
		}
	}
	if got, err := ParseLatencyObjectives("  "); err != nil || got != nil {
		t.Fatalf("blank input: %v, %v", got, err)
	}
	for _, bad := range []string{"similar", "similar=", "similar=fast", "similar=-5ms", "similar=0s"} {
		if _, err := ParseLatencyObjectives(bad); err == nil {
			t.Errorf("ParseLatencyObjectives(%q) did not fail", bad)
		}
	}

	cfg := SLOConfig{Latency: want}
	if d := cfg.latencyObjective("similar"); d != 50*time.Millisecond {
		t.Fatalf("explicit objective %v", d)
	}
	if d := cfg.latencyObjective("recommend"); d != 100*time.Millisecond {
		t.Fatalf("default-key fallback %v", d)
	}
	if d := (SLOConfig{}).latencyObjective("recommend"); d != DefaultSLOLatency {
		t.Fatalf("constant fallback %v", d)
	}
}
