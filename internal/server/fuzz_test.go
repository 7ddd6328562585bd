package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cgct/internal/cluster"
	"cgct/internal/store"
)

// FuzzNormalize feeds arbitrary JSON through the exact path the HTTP
// handler uses (decode into JobRequest, then normalize): hostile input
// must produce an error or a valid key — never a panic and never an
// admission that would let an oversized config reach the simulator.
func FuzzNormalize(f *testing.F) {
	seeds := []string{
		`{}`,
		`{"benchmark":"ocean"}`,
		`{"benchmark":"ocean","options":{"OpsPerProc":2000,"Seed":3}}`,
		`{"type":"experiment","experiment":"fig8"}`,
		`{"type":"experiment","experiment":"nope"}`,
		`{"benchmark":"ocean","options":{"Processors":-5}}`,
		`{"benchmark":"ocean","options":{"Processors":1073741824}}`,
		`{"benchmark":"ocean","options":{"OpsPerProc":1099511627776}}`,
		`{"benchmark":"ocean","options":{"RCASets":1099511627776}}`,
		`{"benchmark":"ocean","options":{"RegionBytes":18446744073709551615}}`,
		`{"benchmark":"ocean","timeout_ms":-1}`,
		`{"benchmark":"ocean","options":{"Directory":true}}`,
		`{"benchmark":"ocean","options":{"Directory":true,"Processors":129}}`,
		`{"benchmark":"ocean","options":{"Directory":true,"Processors":128,"CGCT":true}}`,
		`{"benchmark":"ocean","options":{"Directory":true,"CGCT":true,"RegionBytes":1024}}`,
		`{"benchmark":"ocean","options":{"Directory":true,"RegionPrefetch":true}}`,
		`{"benchmark":"ocean","options":{"Directory":true,"DMAIntervalCycles":2000}}`,
		`{"benchmark":"ocean","options":{"Directory":"directory"}}`,
		`{"benchmark":"ocean","options":{"Directory":true,"RegionScout":true}}`,
		`{"benchmark":"Z"}`,
		`{"benchmark":"` + strings.Repeat("x", 1<<10) + `"}`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		var req JobRequest
		if err := json.Unmarshal([]byte(raw), &req); err != nil {
			return // not even JSON; the handler rejects it earlier
		}
		key, err := req.normalize()
		if err == nil && key == "" {
			t.Fatalf("normalize accepted %q but produced an empty cache key", raw)
		}
	})
}

// TestNormalizeBounds pins the admission limits: oversized or negative
// values must be rejected with an error before any simulator state exists.
func TestNormalizeBounds(t *testing.T) {
	cases := []struct {
		name string
		raw  string
	}{
		{"huge processors", `{"benchmark":"ocean","options":{"Processors":1073741824}}`},
		{"huge ops", `{"benchmark":"ocean","options":{"OpsPerProc":1099511627776}}`},
		{"huge rca sets", `{"benchmark":"ocean","options":{"RCASets":1099511627776}}`},
		{"huge region bytes", `{"benchmark":"ocean","options":{"RegionBytes":1048577}}`},
		{"huge sector bytes", `{"benchmark":"ocean","options":{"L2SectorBytes":1048577}}`},
		{"negative timeout", `{"benchmark":"ocean","timeout_ms":-1}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var req JobRequest
			if err := json.Unmarshal([]byte(tc.raw), &req); err != nil {
				t.Fatalf("seed JSON invalid: %v", err)
			}
			if _, err := req.normalize(); err == nil {
				t.Fatalf("normalize accepted %s", tc.raw)
			}
		})
	}
}

// TestAdmissionBoundsRCAFootprint: the RCA allocates every way up front,
// one array per processor, so admission bounds processors × rca_sets
// with CGCT on. The worst case stays the largest single-array request
// admitted before (4 × 2^22 sets), and the paper's 8192-set RCA stays
// admissible at every admitted processor count.
func TestAdmissionBoundsRCAFootprint(t *testing.T) {
	// Drain first: admission bounds run before the draining check, so the
	// bound answers 400 and a request it wrongly admits gets 503 instead
	// of allocating its RCA.
	s := New(Options{Workers: 1, QueueCapacity: 1})
	if err := s.manager.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	body := `{"benchmark":"ocean","options":{"Processors":128,"RCASets":4194304,"CGCT":true}}`
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "rca_sets") {
		t.Fatalf("128 processors × 2^22 RCA sets: %d %s, want 400 naming rca_sets", rec.Code, rec.Body)
	}
	for _, raw := range []string{
		`{"benchmark":"ocean","options":{"Processors":4,"RCASets":4194304,"CGCT":true}}`,
		`{"benchmark":"ocean","options":{"RCASets":4194304,"CGCT":true}}`,
		`{"benchmark":"ocean","options":{"Processors":128,"CGCT":true}}`,
		`{"benchmark":"ocean","options":{"Processors":128,"RCASets":4194304}}`, // no RCA without CGCT
	} {
		var req JobRequest
		if err := json.Unmarshal([]byte(raw), &req); err != nil {
			t.Fatal(err)
		}
		if _, err := req.normalize(); err != nil {
			t.Errorf("%s rejected: %v", raw, err)
		}
	}
}

// FuzzReplicaPut feeds arbitrary (key, digest, body) triples through the
// replica intake the PUT /v1/results handler uses: hostile pushes must
// never panic and must be accepted exactly when the key is a well-formed
// content address, the digest matches the payload, and the payload is
// valid JSON within the store's size bound — a replica PUT can spill a
// well-formed result and nothing else.
func FuzzReplicaPut(f *testing.F) {
	st, err := store.Open(store.Options{Dir: f.TempDir()})
	if err != nil {
		f.Fatal(err)
	}
	m := NewManager(Options{Workers: 1, QueueCapacity: 4, Store: st})
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = m.Drain(ctx)
		cancel()
	})
	good := []byte(`{"cycles":1}`)
	key := strings.Repeat("0123456789abcdef", 4)
	f.Add(key, cluster.Digest(good), good)
	f.Add(key, cluster.Digest(good), []byte(`{"cycles":2}`))
	f.Add(key, "", good)
	f.Add(key, strings.ToUpper(cluster.Digest(good)), good)
	f.Add("not-a-key", cluster.Digest(good), good)
	f.Add(strings.ToUpper(key), cluster.Digest(good), good)
	f.Add(key, cluster.Digest([]byte("not json")), []byte("not json"))
	f.Add(key, cluster.Digest(nil), []byte{})
	f.Add(key[:63], cluster.Digest(good), good)
	f.Fuzz(func(t *testing.T, key, digest string, body []byte) {
		err := m.AcceptReplica(key, digest, body)
		valid := store.ValidateKey(key) == nil &&
			len(body) <= store.MaxPayload &&
			digest != "" &&
			cluster.Digest(body) == digest &&
			json.Valid(body)
		if (err == nil) != valid {
			t.Fatalf("AcceptReplica(%q, %q, %d bytes) err=%v, want accepted=%v",
				key, digest, len(body), err, valid)
		}
		if err == nil && !st.Has(key) {
			t.Fatalf("accepted replica %q not resident in the store", key)
		}
	})
}
