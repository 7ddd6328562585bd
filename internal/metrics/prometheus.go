package metrics

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered instrument in the Prometheus
// text exposition format (version 0.0.4): one # HELP / # TYPE pair per
// metric family, then one sample line per series, deterministically
// ordered. Histograms expand to cumulative _bucket{le="..."} series plus
// _sum and _count, as scrapers expect.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	lastFamily := ""
	for _, in := range r.sorted() {
		if in.name != lastFamily {
			if in.help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", in.name, escapeHelp(in.help))
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", in.name, in.kind)
			lastFamily = in.name
		}
		in.samples(func(series string, v float64) {
			b.WriteString(series)
			b.WriteByte(' ')
			b.WriteString(formatFloat(v))
			b.WriteByte('\n')
		})
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Snapshot returns every exposed series with its current value, keyed
// exactly as WritePrometheus renders it: the metric name plus its label
// set, e.g. `cgct_jobs{state="done"}` or
// `cgct_job_latency_seconds_bucket{le="0.005"}`. Both renderings walk the
// same samples, so ParseText of the exposition equals the snapshot.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	for _, in := range r.sorted() {
		in.samples(func(series string, v float64) { out[series] = v })
	}
	return out
}

// samples calls emit once per series the instrument exposes, in
// exposition order. A histogram yields its cumulative bucket series (each
// le bucket counts everything at or below its bound), then _sum and
// _count.
func (in *instrument) samples(emit func(series string, v float64)) {
	labels := renderLabels(in.labels)
	switch {
	case in.hist != nil:
		var cum uint64
		for i, bound := range in.hist.bounds {
			cum += in.hist.counts[i].Load()
			emit(in.name+"_bucket"+renderLabels(withLE(in.labels, formatFloat(bound))), float64(cum))
		}
		cum += in.hist.counts[len(in.hist.bounds)].Load()
		emit(in.name+"_bucket"+renderLabels(withLE(in.labels, "+Inf")), float64(cum))
		emit(in.name+"_sum"+labels, in.hist.Sum())
		emit(in.name+"_count"+labels, float64(in.hist.Count()))
	case in.fn != nil:
		emit(in.name+labels, in.fn())
	case in.counter != nil:
		emit(in.name+labels, float64(in.counter.Value()))
	default:
		emit(in.name+labels, float64(in.gauge.Value()))
	}
}

func withLE(labels []Label, le string) []Label {
	out := make([]Label, 0, len(labels)+1)
	out = append(out, labels...)
	return append(out, Label{Key: "le", Value: le})
}

// renderLabels renders {k="v",...} (empty string for no labels), escaping
// label values per the exposition format.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatFloat renders the shortest exact decimal form, with the spellings
// the exposition format requires for the non-finite values.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
