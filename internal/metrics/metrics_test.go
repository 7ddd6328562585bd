package metrics

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	g := r.Gauge("test_depth", "depth")
	c.Inc()
	c.Add(4)
	g.Set(7)
	g.Add(-2)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 102.65; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	m, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, b.String())
	}
	// le="0.1" must include the boundary value (le is less-or-equal), and
	// buckets must be cumulative.
	want := map[string]float64{
		`test_latency_seconds_bucket{le="0.1"}`:  2,
		`test_latency_seconds_bucket{le="1"}`:    3,
		`test_latency_seconds_bucket{le="10"}`:   4,
		`test_latency_seconds_bucket{le="+Inf"}`: 5,
		`test_latency_seconds_count`:             5,
	}
	for k, v := range want {
		if m[k] != v {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
	if snap := r.Snapshot(); !reflect.DeepEqual(snap, m) {
		t.Errorf("Snapshot disagrees with the parsed exposition:\nsnapshot: %v\nparsed:   %v", snap, m)
	}
}

func TestExpositionFormatAndFuncs(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "a counter").Add(3)
	r.GaugeFunc("b_now", "a gauge func", func() float64 { return 1.5 })
	r.CounterFunc("c_total", "a counter func", func() float64 { return 9 })
	r.Gauge("jobs", "jobs by state", Label{"state", "queued"}).Set(2)
	r.Gauge("jobs", "jobs by state", Label{"state", `do"ne`}).Set(4)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# TYPE a_total counter\n",
		"# HELP a_total a counter\n",
		"# TYPE b_now gauge\n",
		"a_total 3\n",
		"b_now 1.5\n",
		"c_total 9\n",
		`jobs{state="queued"} 2` + "\n",
		`jobs{state="do\"ne"} 4` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	// TYPE for a family with several series must appear exactly once.
	if n := strings.Count(text, "# TYPE jobs gauge"); n != 1 {
		t.Errorf("TYPE jobs emitted %d times, want 1", n)
	}
	parsed, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseText rejects our own output: %v", err)
	}
	if snap := r.Snapshot(); !reflect.DeepEqual(snap, parsed) {
		t.Errorf("Snapshot disagrees with the parsed exposition:\nsnapshot: %v\nparsed:   %v", snap, parsed)
	}
}

func TestDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("z_total", "z")
	r.Counter("a_total", "a")
	var b1, b2 strings.Builder
	if err := r.WritePrometheus(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatal("exposition not deterministic")
	}
	if strings.Index(b1.String(), "a_total") > strings.Index(b1.String(), "z_total") {
		t.Fatalf("families not sorted:\n%s", b1.String())
	}
}

func TestRegistrationPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("dup_total", "x")
	mustPanic("duplicate", func() { r.Counter("dup_total", "x") })
	mustPanic("bad name", func() { r.Counter("bad-name", "x") })
	mustPanic("bad label", func() { r.Gauge("g", "x", Label{"bad-key", "v"}) })
	mustPanic("type clash", func() { r.Gauge("dup_total", "x", Label{"k", "v"}) })
	mustPanic("empty hist", func() { r.Histogram("h", "x", nil) })
	mustPanic("unsorted hist", func() { r.Histogram("h", "x", []float64{1, 1}) })
	// Same name with different labels is legal.
	r.Counter("dup_total", "x", Label{"k", "v"})
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total", "c")
	h := r.Histogram("conc_hist", "h", []float64{10, 100})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j % 200))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("hist count = %d, want 8000", h.Count())
	}
	var want float64
	for j := 0; j < 1000; j++ {
		want += float64(j % 200)
	}
	if got := h.Sum(); math.Abs(got-8*want) > 1e-6 {
		t.Fatalf("hist sum = %v, want %v", got, 8*want)
	}
}
