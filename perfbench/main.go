// Command perfbench is the repository's benchmark. It runs one workload of
// the POIESIS planning service or planner for a fixed window, checks every
// output it receives against results computed in-process, and prints each
// metric by name with its unit and sample count, ending with one JSON line:
//
//	bash perfbench/run.sh --workload session-reads --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with all
// tracing off. With --trace 1 it reports the per-layer metrics instead,
// from spans the benchmark records around its calls into each layer; the
// first half of that window runs untraced so the tracing overhead can be
// reported too. NOTES.md records why each workload exists and which
// end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"
)

// metricDecl declares one reported metric.
type metricDecl struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a user of the service sees, reported by every
// workload with tracing off.
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower"},
	{"read_p50_ms", "ms", "lower"},
	{"read_p99_ms", "ms", "lower"},
	{"plan_p50_ms", "ms", "lower"},
	{"plan_p99_ms", "ms", "lower"},
	{"write_p50_ms", "ms", "lower"},
	{"write_p99_ms", "ms", "lower"},
	{"peak_rps", "1/s", "higher"},
	{"success_ratio", "ratio", "higher"},
	{"explore_p50_s", "s", "lower"},
	{"live_heap_mb", "MB", "lower"},
	{"allocs_per_op", "count", "lower"},
}

// perLayer are the metrics of single layers, reported by every workload
// with --trace 1; a layer a workload does not exercise reports 0.
var perLayer = []metricDecl{
	{"server.read.handler_p50_ms", "ms", "lower"},
	{"server.plan.handler_p50_ms", "ms", "lower"},
	{"server.write.handler_p50_ms", "ms", "lower"},
	{"http.transport_p50_ms", "ms", "lower"},
	{"server.plan.resp_bytes", "bytes", "lower"},
	{"cache.hit_ratio", "ratio", "higher"},
	{"cache.bytes", "bytes", "lower"},
	{"backend.put_count", "count", "lower"},
	{"backend.put_p50_ms", "ms", "lower"},
	{"backend.record_bytes_p50", "bytes", "lower"},
	{"backend.list_s", "s", "lower"},
	{"core.snapshot_p50_ms", "ms", "lower"},
	{"core.snapshot_bytes", "bytes", "lower"},
	{"core.restore_p50_ms", "ms", "lower"},
	{"core.plan_p50_ms", "ms", "lower"},
	{"core.plan_self_p50_ms", "ms", "lower"},
	{"core.generated", "count", "lower"},
	{"core.dedup_ratio", "ratio", "higher"},
	{"core.pruned", "count", "higher"},
	{"core.evaluated", "count", "lower"},
	{"fcp.apply_count", "count", "lower"},
	{"fcp.apply_busy_s", "s", "lower"},
	{"etl.clone_busy_s", "s", "lower"},
	{"etl.fingerprint_busy_s", "s", "lower"},
	{"etl.conekeys_busy_s", "s", "lower"},
	{"etl.fingerprint_allocs_per_call", "count", "lower"},
	{"sim.eval_busy_s", "s", "lower"},
	{"sim.cone_hit_ratio", "ratio", "higher"},
	{"measures.estimate_busy_s", "s", "lower"},
	{"skyline.busy_ms", "ms", "lower"},
	{"cluster.forward_ratio", "ratio", "lower"},
	{"cluster.hop_p50_ms", "ms", "lower"},
	{"cluster.peer_cache_get_count", "count", "lower"},
	{"cluster.peer_cache_put_count", "count", "lower"},
	{"runtime.gc_cpu_share", "ratio", "lower"},
	{"runtime.alloc_mb_per_op", "MB", "lower"},
	{"driver.lag_p99_ms", "ms", "lower"},
	{"driver.queue_wait_p50_ms", "ms", "lower"},
	{"bench.trace_overhead_share", "ratio", "lower"},
}

// runConfig is what every workload receives.
type runConfig struct {
	seed   uint64
	window time.Duration
	traced bool
	// procs bounds GOMAXPROCS and the number of client connections.
	procs int
	// scratch is a directory inside the checkout for run files, removed
	// when the run ends; out is the directory spans are written to.
	scratch, out string
}

// writeSpans stores a traced run's spans under out/spans.
func writeSpans(cfg runConfig, name string, r *recorder, spans []span) error {
	path := filepath.Join(cfg.out, "spans", fmt.Sprintf("%s-seed%d.jsonl", name, cfg.seed))
	if err := r.write(path, spans); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", len(spans), path)
	return nil
}

// tally counts operations. A failed operation got an error or an
// unexpected status; a wrong one completed but its output disagreed with
// the in-process reference. Both count as failed, and either fails the run.
// The driver never has two requests in flight on one session, so a 409 or
// 404 is a failure too, not an open-loop race.
type tally struct {
	attempted, failed, wrong atomic.Int64
}

func (t *tally) fail(err error) {
	t.failed.Add(1)
	if t.failed.Load() <= 5 {
		fmt.Fprintln(os.Stderr, "perfbench: op failed:", err)
	}
}

func (t *tally) mismatch(what string) {
	t.wrong.Add(1)
	if t.wrong.Load() <= 5 {
		fmt.Fprintln(os.Stderr, "perfbench: wrong output:", what)
	}
}

// workload runs one workload and fills the report.
type workload func(cfg runConfig, rep *report, t *tally) error

var workloads = map[string]workload{
	"session-reads": runSessionReads,
	"explore-fig4":  runExploreFig4,
	"session-churn": runSessionChurn,
}

func main() {
	name := flag.String("workload", "", "workload to run: session-reads, explore-fig4 or session-churn")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	// The program under test logs through the standard logger in places the
	// configuration does not reach; the benchmark's stdout is its report.
	log.SetOutput(io.Discard)

	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	out := os.Getenv("PERFBENCH_OUT")
	if out == "" {
		out = ".bench_build"
	}
	scratch, err := os.MkdirTemp(mustMkdir(filepath.Join(out, "run")), *name+"-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(scratch)
	cfg := runConfig{
		seed:    *seed,
		window:  time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		procs:   procs,
		scratch: scratch,
		out:     out,
	}
	rep := newReport()
	var t tally
	if err := run(cfg, rep, &t); err != nil {
		os.RemoveAll(scratch)
		fatal(err)
	}
	decls := endToEnd
	if cfg.traced {
		decls = perLayer
	}
	emit(*name, rep, &t, decls)
	if t.failed.Load()+t.wrong.Load() > 0 {
		// A wrong output or a failed operation fails the run, after the
		// report has named them.
		os.RemoveAll(scratch)
		os.Exit(1)
	}
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	return dir
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// emit prints the metric table and, last, the JSON result line.
func emit(name string, rep *report, t *tally, decls []metricDecl) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   t.wrong.Load() == 0,
		Attempted: max(t.attempted.Load(), 1),
		Failed:    t.failed.Load() + t.wrong.Load(),
		Metrics:   map[string]value{},
	}
	fmt.Printf("workload %s: attempted %d, failed %d, wrong outputs %d\n",
		name, t.attempted.Load(), t.failed.Load(), t.wrong.Load())
	for _, d := range decls {
		m := metric{Name: d.Name, Unit: d.Unit, Note: "layer does no work on this workload"}
		if i, ok := rep.index[d.Name]; ok {
			m = rep.metrics[i]
		}
		fmt.Printf("  %-34s %14.6g %-6s n=%-7d %s\n", m.Name, m.Value, m.Unit, m.N, m.Note)
		out.Metrics[d.Name] = value{Value: m.Value, Unit: d.Unit}
	}
	verdict := "PASS: every output checked agrees with the in-process reference"
	if out.Failed > 0 {
		verdict = fmt.Sprintf("FAIL: %d wrong outputs, %d failed operations", t.wrong.Load(), t.failed.Load())
	}
	fmt.Println("verdict:", verdict)
	b, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

// runtimeSample is a snapshot of the process counters the window deltas
// are computed from.
type runtimeSample struct {
	mallocs, allocBytes uint64
	gcCPU, totalCPU     float64
	numGC               uint32
}

func readRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return runtimeSample{
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		numGC:      ms.NumGC,
	}
}

// liveHeapMB forces a collection and returns the heap in use, in MB; the
// caller keeps the workload's state reachable across the call.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / 1e6
}

// runtimeMetrics reports the runtime layer over a window of ops operations.
func runtimeMetrics(rep *report, before, after runtimeSample, ops int) {
	rep.set("runtime.gc_cpu_share", ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU), "ratio", ops, "GC CPU over total CPU in the traced window")
	rep.set("runtime.alloc_mb_per_op", ratio(float64(after.allocBytes-before.allocBytes)/1e6, float64(ops)), "MB", ops, "bytes allocated per op in the traced window")
}

// medianSetup runs setup n times and returns the median duration in
// seconds; teardown runs after every repetition but the last, followed by a
// collection, so no set-up is timed while the runtime still collects the
// state the previous one left behind.
func medianSetup(n int, setup func() (time.Duration, error), teardown func()) (float64, int, error) {
	var ds []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown()
			runtime.GC()
		}
		d, err := setup()
		if err != nil {
			return 0, 0, err
		}
		ds = append(ds, d.Seconds())
	}
	sort.Float64s(ds)
	return median(ds), len(ds), nil
}

// overheadShare is the traced median over the untraced one, minus one.
func overheadShare(untraced, traced []float64) float64 {
	u, t := medianOf(untraced), medianOf(traced)
	if u == 0 || math.IsNaN(u) {
		return 0
	}
	return t/u - 1
}
