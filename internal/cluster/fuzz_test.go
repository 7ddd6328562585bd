package cluster

import (
	"strings"
	"testing"
)

// FuzzParsePeers feeds arbitrary peer-list strings through the parser:
// hostile flag values must produce an error or a list of normalised
// http(s) base URLs — never a panic, never a URL with a path/query that
// would misroute fetches, and never a duplicate membership entry.
func FuzzParsePeers(f *testing.F) {
	seeds := []string{
		"",
		"http://a:8080",
		"http://a:8080,http://b:8080,http://c:8080",
		" http://a:8080 , http://b:8080/ ",
		"http://a:8080,http://a:8080",
		"https://node-1.internal:9443",
		"ftp://a:8080",
		"http://a:8080/v1/jobs",
		"http://user:pass@a:8080",
		"http://[::1]:8080",
		"http://a:8080?x=1,http://b#y",
		strings.Repeat("http://a:8080,", 100),
		"http://\x00:1",
		",,,",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, list string) {
		peers, err := ParsePeers(list)
		if err != nil {
			return
		}
		seen := make(map[string]bool)
		for _, p := range peers {
			if !strings.HasPrefix(p, "http://") && !strings.HasPrefix(p, "https://") {
				t.Fatalf("accepted peer %q without http(s) scheme", p)
			}
			rest := strings.SplitN(p, "://", 2)[1]
			if rest == "" || strings.ContainsAny(rest, "/?#") {
				t.Fatalf("accepted peer %q with host decoration", p)
			}
			if seen[p] {
				t.Fatalf("duplicate peer %q in parsed list", p)
			}
			seen[p] = true
		}
		// Parsed output must be a fixed point: re-parsing yields the same
		// list (normalisation is idempotent).
		again, err := ParsePeers(strings.Join(peers, ","))
		if err != nil {
			t.Fatalf("re-parse of normalised list failed: %v", err)
		}
		if len(again) != len(peers) {
			t.Fatalf("re-parse changed length: %v vs %v", again, peers)
		}
		for i := range peers {
			if again[i] != peers[i] {
				t.Fatalf("re-parse changed entry: %v vs %v", again, peers)
			}
		}
	})
}
