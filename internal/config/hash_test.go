package config

import (
	"encoding/json"
	"testing"
)

func TestCanonicalJSONRoundTrip(t *testing.T) {
	orig := Default().WithCGCT(512)
	orig.Proc.PrefetchRegionFilter = true
	orig.PerturbMaxCycles = 40
	b := orig.CanonicalJSON()
	var back Config
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back != orig {
		t.Fatalf("round trip changed config:\n got %+v\nwant %+v", back, orig)
	}
	// Re-encoding the round-tripped config must be byte-identical.
	if string(back.CanonicalJSON()) != string(b) {
		t.Fatal("canonical encoding not stable across a round trip")
	}
}

func TestHashDistinguishesConfigs(t *testing.T) {
	base := Default()
	if base.Hash() != Default().Hash() {
		t.Fatal("equal configs hash differently")
	}
	variants := []Config{
		Default().WithCGCT(512),
		Default().WithCGCT(1024),
		Default().WithRCASets(4096),
		Default().WithRegionScout(512),
		Default().WithDirectory(),
		Default().WithCGCT(512).WithDirectory(),
	}
	seen := map[string]int{base.Hash(): -1}
	for i, v := range variants {
		h := v.Hash()
		if j, dup := seen[h]; dup {
			t.Fatalf("variant %d collides with %d", i, j)
		}
		seen[h] = i
	}
	if len(base.Hash()) != 64 {
		t.Fatalf("hash length = %d, want 64 hex chars", len(base.Hash()))
	}
}
