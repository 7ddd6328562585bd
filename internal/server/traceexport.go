package server

import (
	"encoding/json"
	"io"
	"sort"
)

// chromeTraceEvent is one event in the Chrome Trace Event JSON format
// (the chrome://tracing / Perfetto "traceEvents" array). Phase "X" is a
// complete event: a named interval with microsecond start and duration;
// phase "M" is per-track metadata (thread names).
type chromeTraceEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   int64             `json:"ts"` // microseconds
	Dur  int64             `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  uint64            `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeTraceFile is the JSON-object trace container format.
type chromeTraceFile struct {
	TraceEvents     []chromeTraceEvent `json:"traceEvents"`
	DisplayTimeUnit string             `json:"displayTimeUnit"`
}

// WriteChromeTrace renders the phase spans of every retained terminal job
// as chrome://tracing JSON: one track (tid) per job in submission order,
// one complete event per phase, with job id / state / failure kind in the
// event args. Load the file in chrome://tracing or https://ui.perfetto.dev
// to see queueing, trace compilation, simulation and aggregation laid out
// on a common timeline. cmd/cgctserve writes it at shutdown via -trace-out.
func (m *Manager) WriteChromeTrace(w io.Writer) error {
	m.mu.Lock()
	jobs := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		if j.state.Terminal() && !j.finished.IsZero() {
			jobs = append(jobs, j)
		}
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].seq < jobs[b].seq })

	out := chromeTraceFile{DisplayTimeUnit: "ms", TraceEvents: []chromeTraceEvent{}}
	for _, j := range jobs {
		args := map[string]string{
			"job_id":    j.id,
			"state":     string(j.state),
			"benchmark": j.request.Benchmark,
		}
		if j.failureKind != "" {
			args["failure_kind"] = j.failureKind
		}
		out.TraceEvents = append(out.TraceEvents, chromeTraceEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: j.seq,
			Args: map[string]string{"name": "job " + shortHash(j.id)},
		})
		for _, p := range j.phases() {
			out.TraceEvents = append(out.TraceEvents, chromeTraceEvent{
				Name: p.Name,
				Ph:   "X",
				Ts:   p.StartedAt.UnixMicro(),
				Dur:  int64(p.DurationMs * 1000),
				PID:  1,
				TID:  j.seq,
				Args: args,
			})
		}
	}
	m.mu.Unlock()

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}
