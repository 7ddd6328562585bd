// Package client is the Go client for the cgctserve HTTP API
// (internal/server). The server's own tests and cmd/cgctserve's smoke
// mode drive the service through it.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"

	"cgct/internal/server"
)

// Client talks to one cgctserve instance.
type Client struct {
	base  string
	hc    *http.Client
	retry RetryPolicy // zero = no retries
}

// New builds a client for the server at base (e.g. "http://127.0.0.1:8080").
// httpClient may be nil for http.DefaultClient. The client does not retry;
// use WithRetry to opt in.
func New(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: httpClient}
}

// RetryPolicy bounds the client's retry loop: capped exponential backoff
// with equal jitter, applied to 429/503 responses and transient transport
// errors. Zero fields take the defaults noted per field.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries, the first included
	// (default 4).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 100ms); the
	// delay doubles each attempt.
	BaseDelay time.Duration
	// MaxDelay caps the backoff and any server Retry-After hint
	// (default 2s).
	MaxDelay time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	return p
}

// WithRetry returns a copy of the client that retries retryable failures
// under p. Submissions are content-addressed server-side, so retrying a
// Submit is idempotent: a duplicate lands on the cache or joins the
// in-flight computation.
func (c *Client) WithRetry(p RetryPolicy) *Client {
	cp := *c
	cp.retry = p.withDefaults()
	return &cp
}

// retryable reports whether err is worth retrying: throttling/draining
// responses (429, 503) and transport-level failures (connection refused or
// reset mid-flight). Context cancellation and every other HTTP status are
// definitive.
func retryable(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.StatusCode == http.StatusTooManyRequests || ae.StatusCode == http.StatusServiceUnavailable
	}
	return true // transport error
}

// backoffDelay computes the sleep before retry number attempt (0-based):
// the server's Retry-After hint when usable, else BaseDelay<<attempt —
// both capped at MaxDelay — with equal jitter.
func (p RetryPolicy) backoffDelay(attempt int, err error) time.Duration {
	d := p.BaseDelay << attempt
	if d <= 0 || d > p.MaxDelay {
		d = p.MaxDelay
	}
	var ae *APIError
	if errors.As(err, &ae) && ae.RetryAfter != "" {
		if secs, perr := strconv.Atoi(ae.RetryAfter); perr == nil && secs >= 0 {
			hint := time.Duration(secs) * time.Second
			d = min(max(hint, p.BaseDelay), p.MaxDelay)
		}
	}
	// Equal jitter: half fixed, half uniform — desynchronises retry storms
	// without giving up the floor.
	return d/2 + rand.N(d/2+1)
}

// APIError is a non-2xx response, carrying the HTTP status code and the
// server's error message.
type APIError struct {
	StatusCode int
	Message    string
	RetryAfter string // the Retry-After header, if any (429/503)
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server: HTTP %d: %s", e.StatusCode, e.Message)
}

// do issues a request — retrying retryable failures when the client has a
// RetryPolicy — and decodes the JSON response into out (unless nil).
// Non-2xx responses become *APIError.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var encoded []byte
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		encoded = b
	}
	attempts := 1
	if c.retry.MaxAttempts > 0 {
		attempts = c.retry.MaxAttempts
	}
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if serr := sleepContext(ctx, c.retry.backoffDelay(attempt-1, err)); serr != nil {
				return serr
			}
		}
		err = c.doOnce(ctx, method, path, encoded, out)
		if err == nil || !retryable(err) {
			return err
		}
	}
	return err
}

// sleepContext sleeps for d, returning ctx.Err() the moment ctx is
// cancelled — an already-cancelled context never sleeps at all (a plain
// two-way select could win the timer case even then), and the timer is
// stopped on early exit so a long backoff does not outlive its caller.
func sleepContext(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// doOnce issues exactly one request. encoded is the pre-marshalled body
// (nil for none), so a retry never re-reads a consumed reader.
func (c *Client) doOnce(ctx context.Context, method, path string, encoded []byte, out any) error {
	var rdr io.Reader
	if encoded != nil {
		rdr = bytes.NewReader(encoded)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rdr)
	if err != nil {
		return err
	}
	if encoded != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var eb struct {
			Error string `json:"error"`
		}
		_ = json.Unmarshal(raw, &eb)
		if eb.Error == "" {
			eb.Error = strings.TrimSpace(string(raw))
		}
		return &APIError{StatusCode: resp.StatusCode, Message: eb.Error, RetryAfter: resp.Header.Get("Retry-After")}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

// Submit enqueues a job and returns its initial status.
func (c *Client) Submit(ctx context.Context, req server.JobRequest) (server.JobStatus, error) {
	var st server.JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &st)
	return st, err
}

// Status fetches a job's lifecycle state.
func (c *Client) Status(ctx context.Context, id string) (server.JobStatus, error) {
	var st server.JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Result fetches a done job's result, decoding the result payload into
// out (e.g. *cgct.Result for sim jobs) unless out is nil. A job that is
// not done yields an *APIError with StatusCode 409.
func (c *Client) Result(ctx context.Context, id string, out any) (server.JobStatus, error) {
	var body struct {
		server.JobStatus
		Result json.RawMessage `json:"result"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, &body); err != nil {
		return server.JobStatus{}, err
	}
	if out != nil {
		if err := json.Unmarshal(body.Result, out); err != nil {
			return body.JobStatus, fmt.Errorf("decoding result payload: %w", err)
		}
	}
	return body.JobStatus, nil
}

// Cancel requests cancellation and returns the resulting status.
func (c *Client) Cancel(ctx context.Context, id string) (server.JobStatus, error) {
	var st server.JobStatus
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Metrics fetches /v1/metrics: every series the server's metrics
// registry exposes (e.g. `cgct_jobs{state="done"}`) with its value.
func (c *Client) Metrics(ctx context.Context) (map[string]float64, error) {
	var m map[string]float64
	err := c.do(ctx, http.MethodGet, "/v1/metrics", nil, &m)
	return m, err
}

// PrometheusMetrics fetches /metrics — the same series as Metrics, in
// Prometheus text exposition format — and returns the raw text.
func (c *Client) PrometheusMetrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", &APIError{StatusCode: resp.StatusCode, Message: strings.TrimSpace(string(raw))}
	}
	return string(raw), nil
}

// Healthy reports whether /v1/healthz returns 200. Health checks never
// retry, even on a retry-enabled client: a draining server's 503 is the
// answer, not an obstacle.
func (c *Client) Healthy(ctx context.Context) bool {
	err := c.doOnce(ctx, http.MethodGet, "/v1/healthz", nil, nil)
	return err == nil
}

// Wait polls a job until it reaches a terminal state (or ctx expires),
// returning the final status.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (server.JobStatus, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			return st, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-t.C:
		}
	}
}
