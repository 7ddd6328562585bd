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

// FuzzNormalize feeds arbitrary bodies through the exact path the HTTP
// handler uses (decodeJobRequest, then normalize): hostile input must
// produce an error or a valid key — never a panic and never an admission
// that would let an oversized config reach the simulator. Seeds carrying
// retired fields (type, experiment, DMAIntervalCycles) stop at the
// decoder's unknown-field rejection, as they do at POST /v1/jobs.
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
		`{"benchmark":"ocean"} {"benchmark":"ocean"}`,
		`{"benchmark":"ocean"}` + " \n\t",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		req, err := decodeJobRequest(strings.NewReader(raw))
		if err != nil {
			return // the handler answers 400 or 413 before admission
		}
		key, err := req.normalize()
		if err == nil && key == "" {
			t.Fatalf("normalize accepted %q but produced an empty cache key", raw)
		}
		if err == nil && (len(raw) > maxJobRequestBytes || len(req.Benchmark) > maxReqBenchmarkName) {
			t.Fatalf("admitted a %d-byte body naming a %d-byte benchmark", len(raw), len(req.Benchmark))
		}
	})
}

// TestNormalizeBounds pins the admission limits: oversized or negative
// values, and fields the API does not have, must be rejected with an
// error naming them before any simulator state exists.
func TestNormalizeBounds(t *testing.T) {
	cases := []struct {
		name string
		raw  string
		want string // substring of the rejection
	}{
		{"huge processors", `{"benchmark":"ocean","options":{"Processors":1073741824}}`, "processors"},
		{"huge ops", `{"benchmark":"ocean","options":{"OpsPerProc":1099511627776}}`, "ops_per_proc"},
		{"huge rca sets", `{"benchmark":"ocean","options":{"RCASets":1099511627776}}`, "rca_sets"},
		{"huge region bytes", `{"benchmark":"ocean","options":{"RegionBytes":1048577}}`, "region_bytes"},
		{"huge sector bytes", `{"benchmark":"ocean","options":{"L2SectorBytes":1048577}}`, "l2_sector_bytes"},
		{"negative timeout", `{"benchmark":"ocean","timeout_ms":-1}`, "timeout_ms"},
		{"retired job kind", `{"benchmark":"ocean","type":"experiment","params":{"OpsPerProc":5}}`, `unknown field "type"`},
		{"trailing data", `{"benchmark":"ocean"} {}`, "after the JSON object"},
		{"body over the limit", `{"benchmark":"ocean"` + strings.Repeat(" ", maxJobRequestBytes) + `}`, "exceeds 65536 bytes"},
		{"long benchmark name", `{"benchmark":"` + strings.Repeat("x", maxReqBenchmarkName+1) + `"}`, "benchmark name of 65 bytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := decodeJobRequest(strings.NewReader(tc.raw))
			if err == nil {
				_, err = req.normalize()
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("admission of %s: err = %v, want a rejection naming %s", tc.raw, err, tc.want)
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
		req, err := decodeJobRequest(strings.NewReader(raw))
		if err != nil {
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
