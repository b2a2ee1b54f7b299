package loadgen_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"poiesis"
	"poiesis/internal/loadgen"
)

// startService mounts the real planning service on a real listener, so the
// generator exercises the same HTTP path (including SSE flushing) a remote
// run would.
func startService(t *testing.T) *httptest.Server {
	t.Helper()
	handler := poiesis.NewServer(poiesis.ServerConfig{Logf: t.Logf})
	srv := httptest.NewServer(handler)
	t.Cleanup(func() {
		srv.Close()
		handler.Close()
	})
	return srv
}

// TestOpenLoopSmoke is the short low-QPS harness smoke run CI executes under
// -race: a full mixed-traffic window against an in-process service, ending
// with every op class exercised and a near-zero error budget.
func TestOpenLoopSmoke(t *testing.T) {
	srv := startService(t)
	report, err := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL:  srv.URL,
		QPS:      40,
		Duration: 1500 * time.Millisecond,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Arrivals == 0 {
		t.Fatal("open-loop run produced no arrivals")
	}
	if report.Dropped == report.Arrivals {
		t.Fatal("every arrival was shed")
	}
	if rate := report.ErrorRate(); rate > 0.01 {
		t.Errorf("error rate %.3f over budget against a local healthy server; report: %+v", rate, report)
	}
	seen := map[string]bool{}
	var okTotal int
	for _, op := range report.Ops {
		seen[op.Op] = true
		okTotal += op.OK
		if op.OK > 0 && (op.P50Ns <= 0 || op.P99Ns < op.P50Ns || op.P999Ns < op.P99Ns || op.MaxNs < op.P999Ns) {
			t.Errorf("%s percentiles incoherent: %+v", op.Op, op)
		}
	}
	// The default server samples every trace, so each slow sample must link
	// to a fetchable span tree, and the table must be sorted worst-first.
	if len(report.Slowest) == 0 {
		t.Error("no slow samples captured")
	}
	for i, sl := range report.Slowest {
		if sl.TraceID == "" {
			t.Errorf("slow sample %d (%s, %dns) lacks a trace ID", i, sl.Op, sl.Nanos)
		}
		if i > 0 && sl.Nanos > report.Slowest[i-1].Nanos {
			t.Errorf("slow samples out of order at %d: %d > %d", i, sl.Nanos, report.Slowest[i-1].Nanos)
		}
	}
	if okTotal == 0 {
		t.Fatal("no successful operations recorded")
	}
	// At 40 qps over 1.5s with the default mix, every class should fire; a
	// missing one means the dispatcher starved it.
	for _, op := range []string{"create", "plan", "select", "get", "sse", "delete"} {
		if !seen[op] {
			t.Errorf("op %s never dispatched", op)
		}
	}
}

// TestOpenLoopOfferedRate: arrivals are scheduled at absolute due times, so
// the offered rate holds the target even when dispatch overhead is high. A
// stub service answers instantly, leaving the generator as the only cost;
// a schedule built from "now plus the next gap" fell to ~68% of a 1,000 qps
// target.
func TestOpenLoopOfferedRate(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if r.Method == http.MethodPost && r.URL.Path == "/v1/sessions" {
			w.WriteHeader(http.StatusCreated)
			_, _ = w.Write([]byte(`{"id":"stub"}`))
			return
		}
		_, _ = w.Write([]byte(`{}`))
	}))
	t.Cleanup(stub.Close)
	const target = 1000.0
	duration := 2 * time.Second
	report, err := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL:  stub.URL,
		QPS:      target,
		Duration: duration,
		Mix:      loadgen.Mix{loadgen.OpGet: 1},
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	offered := float64(report.Arrivals) / duration.Seconds()
	if offered < 0.95*target || offered > 1.05*target {
		t.Errorf("offered %.0f qps against a %.0f qps target (%d arrivals in %s)", offered, target, report.Arrivals, duration)
	}
	// The window ends on schedule: the dispatcher does not run past the
	// duration by more than the in-flight drain of an instant service.
	if elapsed := time.Duration(report.DurationNs); elapsed > duration+500*time.Millisecond {
		t.Errorf("run took %s for a %s window", elapsed, duration)
	}
}

// TestReportRecords checks the benchjson-compatible flattening: one record
// per op plus the overall summary, all under the prefix, with the percentile
// metrics present.
func TestReportRecords(t *testing.T) {
	srv := startService(t)
	report, err := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL:  srv.URL,
		QPS:      30,
		Duration: time.Second,
		Mix:      loadgen.Mix{loadgen.OpCreate: 1, loadgen.OpGet: 3},
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	records := report.Records("LoadHTTP/memory")
	if len(records) < 2 {
		t.Fatalf("got %d records, want at least one op plus overall", len(records))
	}
	last := records[len(records)-1]
	if last.Name != "LoadHTTP/memory/overall" {
		t.Errorf("last record %q, want the overall summary", last.Name)
	}
	for _, key := range []string{"target-qps", "achieved-qps", "dropped", "errors"} {
		if _, ok := last.Metrics[key]; !ok {
			t.Errorf("overall record lacks %s: %+v", key, last.Metrics)
		}
	}
	for _, rec := range records[:len(records)-1] {
		if !strings.HasPrefix(rec.Name, "LoadHTTP/memory/") {
			t.Errorf("record %q escapes the prefix", rec.Name)
		}
		if rec.NsPerOp <= 0 {
			t.Errorf("record %q has no latency", rec.Name)
		}
		for _, key := range []string{"p50-ns", "p95-ns", "p99-ns", "max-ns", "errors", "conflicts"} {
			if _, ok := rec.Metrics[key]; !ok {
				t.Errorf("record %q lacks metric %s", rec.Name, key)
			}
		}
	}
}

// TestConfigValidation: bad configurations fail before any traffic.
func TestConfigValidation(t *testing.T) {
	for name, cfg := range map[string]loadgen.Config{
		"no url":       {QPS: 1, Duration: time.Second},
		"zero qps":     {BaseURL: "http://x", Duration: time.Second},
		"zero dur":     {BaseURL: "http://x", QPS: 1},
		"empty mix":    {BaseURL: "http://x", QPS: 1, Duration: time.Second, Mix: loadgen.Mix{}},
		"negative mix": {BaseURL: "http://x", QPS: 1, Duration: time.Second, Mix: loadgen.Mix{loadgen.OpGet: -1}},
	} {
		if _, err := loadgen.Run(context.Background(), cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
