package obs

import (
	"bytes"
	"context"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("poiesis_test_total", "a test counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("poiesis_test_total", "a test counter"); again != c {
		t.Fatal("re-registering returned a different counter")
	}
	g := r.Gauge("poiesis_test_gauge", "a test gauge")
	g.Set(7)
	g.Dec()
	if got := g.Value(); got != 6 {
		t.Fatalf("gauge = %d, want 6", got)
	}
}

func TestCounterVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("poiesis_ops_total", "ops", "route", "code")
	v.With("/v1/plan", "2xx").Add(3)
	v.With("/v1/plan", "5xx").Inc()
	if got := v.With("/v1/plan", "2xx").Value(); got != 3 {
		t.Fatalf("labeled counter = %d, want 3", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label arity did not panic")
		}
	}()
	v.With("only-one")
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram(nil)
	// 100 observations spread uniformly inside the 1ms..2.5ms bucket.
	for i := 0; i < 100; i++ {
		h.Observe(2 * time.Millisecond)
	}
	if got := h.Count(); got != 100 {
		t.Fatalf("count = %d, want 100", got)
	}
	p50 := h.Quantile(0.5)
	if p50 < 0.001 || p50 > 0.0025 {
		t.Fatalf("p50 = %v, want within (0.001, 0.0025]", p50)
	}
	// Mixed distribution: p99 should land in a higher bucket than p50.
	h2 := newHistogram(nil)
	for i := 0; i < 99; i++ {
		h2.Observe(time.Millisecond)
	}
	h2.Observe(5 * time.Second)
	if p50, p99 := h2.Quantile(0.5), h2.Quantile(0.99); p99 <= p50 {
		t.Fatalf("p99 %v <= p50 %v", p99, p50)
	}
	if h.Quantile(1.0) > DefBuckets[len(DefBuckets)-1] {
		t.Fatal("quantile exceeded last finite bound")
	}
	var empty Histogram
	if got := (&empty).Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := newHistogram([]float64{0.001, 0.01})
	h.Observe(time.Minute) // beyond the last bound
	if got := h.Quantile(0.99); got != 0.01 {
		t.Fatalf("overflow quantile = %v, want clamp to 0.01", got)
	}
}

// TestValueHistogram: a plain-value histogram buckets and sums in the
// observed unit, with no seconds conversion in the exposition.
func TestValueHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.ValueHistogram("poiesis_record_bytes", "record size", []float64{1024, 65536})
	h.ObserveValue(512)
	h.ObserveValue(4096)
	h.ObserveValue(1 << 20)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, s := range samples {
		got[s.Key()] = s.Value
	}
	for key, want := range map[string]float64{
		`poiesis_record_bytes_bucket{le="1024"}`:  1,
		`poiesis_record_bytes_bucket{le="65536"}`: 2,
		`poiesis_record_bytes_bucket{le="+Inf"}`:  3,
		`poiesis_record_bytes_sum`:                512 + 4096 + 1<<20,
		`poiesis_record_bytes_count`:              3,
	} {
		if got[key] != want {
			t.Errorf("%s = %v, want %v (all: %v)", key, got[key], want, got)
		}
	}
	if q := h.Quantile(0.5); q <= 1024 || q > 65536 {
		t.Errorf("median %v outside the (1024, 65536] bucket", q)
	}
}

func TestWriteAndParseRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("poiesis_plans_total", "plans").Add(12)
	r.GaugeVec("poiesis_depth", "queue depth", "queue").With(`we"ird\lab` + "\n").Set(-3)
	hv := r.HistogramVec("poiesis_lat_seconds", "latency", []float64{0.001, 0.1}, "route")
	hv.With("/v1/plan").Observe(5 * time.Millisecond)
	hv.With("/v1/plan").Observe(50 * time.Millisecond)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE poiesis_plans_total counter",
		"poiesis_plans_total 12",
		"# TYPE poiesis_lat_seconds histogram",
		`poiesis_lat_seconds_bucket{route="/v1/plan",le="+Inf"} 2`,
		`poiesis_lat_seconds_count{route="/v1/plan"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	samples, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseText: %v\n%s", err, text)
	}
	byKey := make(map[string]float64)
	for _, s := range samples {
		byKey[s.Key()] = s.Value
	}
	if byKey["poiesis_plans_total"] != 12 {
		t.Fatalf("parsed counter = %v", byKey["poiesis_plans_total"])
	}
	wantGauge := `poiesis_depth{queue="we\"ird\\lab` + "\n" + `"}`
	if got := byKey[Sample{Name: "poiesis_depth", Labels: map[string]string{"queue": "we\"ird\\lab\n"}}.Key()]; got != -3 {
		t.Fatalf("escaped label round-trip failed (%q): got %v, keys %v", wantGauge, got, byKey)
	}
	if byKey[`poiesis_lat_seconds_bucket{le="+Inf",route="/v1/plan"}`] != 2 {
		t.Fatalf("histogram +Inf bucket missing: %v", byKey)
	}
	sum := byKey[`poiesis_lat_seconds_sum{route="/v1/plan"}`]
	if math.Abs(sum-0.055) > 1e-9 {
		t.Fatalf("histogram sum = %v, want 0.055", sum)
	}

	// Deterministic output: a second render is byte-identical.
	var buf2 bytes.Buffer
	if err := r.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != text {
		t.Fatal("exposition not deterministic")
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"orphan_metric 1\n",                           // no TYPE
		"# TYPE m counter\nm{x=\"unterminated} 1\n",   // bad label quoting
		"# TYPE m counter\nm notanumber\n",            // bad value
		"# TYPE m sideways\nm 1\n",                    // unknown type
		"# TYPE m counter\n0bad{x=\"y\"} 1\n",         // invalid name
		"# TYPE m counter\nm{x=\"a\\q\"} 1\n",         // bad escape
		"# TYPE m histogram\nm_quantile{q=\"1\"} 1\n", // not a histogram suffix
		"# TYPE m counter\nm 1 2 3\n",                 // trailing junk
	} {
		if _, err := ParseText(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseText accepted %q", bad)
		}
	}
	// Timestamps are part of the format and accepted.
	if _, err := ParseText(strings.NewReader("# TYPE m counter\nm 1 1712000000\n")); err != nil {
		t.Errorf("timestamped sample rejected: %v", err)
	}
	// Braces inside quoted values must not terminate the label set: HTTP
	// route labels carry mux patterns like /v1/sessions/{id}/plan.
	in := "# TYPE m counter\nm{route=\"POST /v1/sessions/{id}/plan\"} 3\n"
	samples, err := ParseText(strings.NewReader(in))
	if err != nil {
		t.Fatalf("braced label value rejected: %v", err)
	}
	if len(samples) != 1 || samples[0].Labels["route"] != "POST /v1/sessions/{id}/plan" {
		t.Errorf("braced label value mangled: %+v", samples)
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.CounterVec("poiesis_conc_total", "c", "worker").With("w").Inc()
				r.HistogramVec("poiesis_conc_seconds", "h", nil, "worker").With("w").Observe(time.Millisecond)
				r.Gauge("poiesis_conc_gauge", "g").Add(1)
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				var buf bytes.Buffer
				if err := r.WritePrometheus(&buf); err != nil {
					t.Error(err)
					return
				}
				if _, err := ParseText(&buf); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := r.CounterVec("poiesis_conc_total", "c", "worker").With("w").Value(); got != 8*500 {
		t.Fatalf("concurrent counter = %d, want %d", got, 8*500)
	}
}

func TestRequestID(t *testing.T) {
	id := NewRequestID()
	if len(id) != 16 || !ValidRequestID(id) {
		t.Fatalf("NewRequestID() = %q", id)
	}
	if id2 := NewRequestID(); id2 == id {
		t.Fatalf("two request IDs collided: %q", id)
	}
	for _, ok := range []string{"abc-DEF_0.9", "x"} {
		if !ValidRequestID(ok) {
			t.Errorf("ValidRequestID(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", strings.Repeat("a", 65), "has space", "new\nline", "quo\"te"} {
		if ValidRequestID(bad) {
			t.Errorf("ValidRequestID(%q) = true", bad)
		}
	}
	ctx := ContextWithRequestID(context.Background(), id)
	if got := RequestIDFrom(ctx); got != id {
		t.Fatalf("RequestIDFrom = %q, want %q", got, id)
	}
	if got := RequestIDFrom(context.Background()); got != "" {
		t.Fatalf("RequestIDFrom(empty) = %q", got)
	}
}

func TestBuildInfo(t *testing.T) {
	v, rev := BuildInfo()
	if v == "" || rev == "" {
		t.Fatalf("BuildInfo() = %q, %q", v, rev)
	}
	if len(rev) > 12 {
		t.Fatalf("revision %q not truncated", rev)
	}
}
