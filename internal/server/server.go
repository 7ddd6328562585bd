package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"cgct/internal/cluster"
	"cgct/internal/store"
)

// Server binds a Manager to HTTP routes:
//
//	POST   /v1/jobs           submit a job: 200 done at admission (result resident in
//	                          the cache), 202 queued; 429 queue full; 503 draining
//	GET    /v1/jobs/{id}      lifecycle status with queue position
//	GET    /v1/jobs/{id}/result  full result JSON of a done job (409 otherwise)
//	DELETE /v1/jobs/{id}      cancel (queued: immediate; running: via context)
//	GET    /v1/results/{key}  result bytes by content address (peer fetching;
//	                          ?wait=1 joins an in-flight computation; never computes)
//	PUT    /v1/results/{key}  replica intake: a peer pushes a result it computed
//	                          (key/digest validated; 503 on a storeless node)
//	GET    /v1/cluster        this node's view of the fleet (membership and peer health)
//	GET    /v1/metrics        the metrics registry as a JSON object, series → value
//	GET    /metrics           the same registry in Prometheus text format
//	GET    /v1/healthz        200 ok, 503 while draining
type Server struct {
	manager *Manager
	mux     *http.ServeMux
}

// New builds a Server (and its Manager, whose worker pool starts
// immediately).
func New(o Options) *Server {
	s := &Server{manager: NewManager(o), mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/results/{key}", s.handleResultByKey)
	s.mux.HandleFunc("PUT /v1/results/{key}", s.handleReplicaPut)
	s.mux.HandleFunc("GET /v1/cluster", s.handleCluster)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /metrics", s.handlePrometheus)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	return s
}

// Manager returns the underlying job manager (for draining and tests).
func (s *Server) Manager() *Manager { return s.manager }

// Handler returns the HTTP handler serving the /v1 API.
func (s *Server) Handler() http.Handler { return s.mux }

// errorBody is the wire form of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // nothing useful to do about a mid-body write error
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// maxJobRequestBytes bounds a POST /v1/jobs body. A job request is a
// benchmark name and a few dozen numeric options, well under 1 KiB.
const maxJobRequestBytes = 64 << 10

// errJobRequestTooLarge is decodeJobRequest's error for a body past
// maxJobRequestBytes; the handler answers it with 413.
var errJobRequestTooLarge = fmt.Errorf("job request exceeds %d bytes", maxJobRequestBytes)

// decodeJobRequest decodes a POST /v1/jobs body: one JSON object of at
// most maxJobRequestBytes, followed by nothing but whitespace. Unknown
// fields are errors, so a retired option or job kind gets a 400 naming it
// instead of being silently dropped from the request and its content key.
func decodeJobRequest(body io.Reader) (JobRequest, error) {
	raw, err := io.ReadAll(io.LimitReader(body, maxJobRequestBytes+1))
	if err != nil {
		return JobRequest{}, fmt.Errorf("reading job request: %w", err)
	}
	if len(raw) > maxJobRequestBytes {
		return JobRequest{}, errJobRequestTooLarge
	}
	var req JobRequest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return JobRequest{}, fmt.Errorf("decoding job request: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return JobRequest{}, errors.New("decoding job request: data after the JSON object")
	}
	return req, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := decodeJobRequest(r.Body)
	if errors.Is(err, errJobRequestTooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, err)
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	st, err := s.manager.Submit(req)
	switch {
	case errors.Is(err, ErrQueueFull):
		// Admission control: bounded queue, never unbounded goroutines.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, err)
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
	default:
		w.Header().Set("Location", "/v1/jobs/"+st.ID)
		code := http.StatusAccepted
		if st.State == StateDone {
			code = http.StatusOK // served at admission: nothing to poll
		}
		writeJSON(w, code, st)
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.manager.Status(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// resultBody wraps a done job's payload with its status.
type resultBody struct {
	JobStatus
	Result any `json:"result"`
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	res, st, err := s.manager.Result(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	if st.State != StateDone {
		writeJSON(w, http.StatusConflict, resultBody{JobStatus: st})
		return
	}
	writeJSON(w, http.StatusOK, resultBody{JobStatus: st, Result: res})
}

// handleResultByKey serves the canonical result bytes for a content
// address — the endpoint cluster peers fetch from. It reads the resident
// cache and the persistent store; with ?wait=1 it also joins (never
// leads) an in-flight computation for the key. It never computes: a key
// this node has no answer for is an authoritative 404, telling the
// caller to simulate locally.
func (s *Server) handleResultByKey(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	wait := r.URL.Query().Get("wait") == "1"
	payload, err := s.manager.ResultPayload(r.Context(), key, wait)
	switch {
	case errors.Is(err, store.ErrBadKey):
		writeError(w, http.StatusBadRequest, err)
	case err != nil:
		writeError(w, http.StatusNotFound, ErrNotFound)
	default:
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(payload)
	}
}

// handleReplicaPut is the receiving half of result replication: a peer
// that just simulated a key this node is a ring owner for pushes the
// payload here. The body is bounded before it is read, and the manager
// re-validates key grammar, digest and JSON — a replica PUT can spill a
// well-formed result into the store and nothing else.
func (s *Server) handleReplicaPut(w http.ResponseWriter, r *http.Request) {
	payload, err := io.ReadAll(io.LimitReader(r.Body, store.MaxPayload+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading replica body: %w", err))
		return
	}
	if len(payload) > store.MaxPayload {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("replica payload exceeds %d bytes", store.MaxPayload))
		return
	}
	err = s.manager.AcceptReplica(r.PathValue("key"), r.Header.Get(cluster.DigestHeader), payload)
	switch {
	case errors.Is(err, store.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
	default:
		w.WriteHeader(http.StatusNoContent)
	}
}

// handleCluster serves this node's view of the fleet: membership with
// per-peer health. Its counters are the cgct_peer_* / cgct_cluster_*
// series on the metrics endpoints. Standalone nodes answer
// {"enabled": false} rather than 404, so operators can always probe the
// same path.
func (s *Server) handleCluster(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.manager.ClusterStatus())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.manager.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleMetrics serves the observability registry as one flat JSON object
// keyed by exactly the series GET /metrics exposes.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.manager.Registry().Snapshot())
}

// handlePrometheus serves the observability registry in Prometheus text
// exposition format. It and handleMetrics render the same per-series
// samples, so the two endpoints cannot disagree.
func (s *Server) handlePrometheus(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.manager.Registry().WritePrometheus(w) // mid-body write errors are the client's problem
}

// healthBody is the wire form of GET /v1/healthz.
type healthBody struct {
	Status string `json:"status"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.manager.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, healthBody{Status: "draining"})
		return
	}
	writeJSON(w, http.StatusOK, healthBody{Status: "ok"})
}
