package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"poiesis/internal/cluster"
	"poiesis/internal/obs"
)

// diskOpener returns a constructor for servers over one disk directory on a
// frozen clock; each call is a process restart.
func diskOpener(t *testing.T, dir string) func() *Server {
	t.Helper()
	clock := func() time.Time { return time.Unix(9000, 0) }
	return func() *Server {
		b, err := NewDiskBackend(dir)
		if err != nil {
			t.Fatal(err)
		}
		b.Logf = t.Logf
		return New(Config{Backend: b, Logf: t.Logf, Now: clock})
	}
}

func statsOf(t *testing.T, s *Server) serverStatsJSON {
	t.Helper()
	var st serverStatsJSON
	if rr := do(t, s, "GET", "/v1/stats", "", &st); rr.Code != http.StatusOK {
		t.Fatalf("stats: %d", rr.Code)
	}
	return st
}

func mustGet(t *testing.T, s *Server, path string) string {
	t.Helper()
	rr := do(t, s, "GET", path, "", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("GET %s: %d %s", path, rr.Code, rr.Body.String())
	}
	return rr.Body.String()
}

func mustPost(t *testing.T, s *Server, path, body string) string {
	t.Helper()
	rr := do(t, s, "POST", path, body, nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("POST %s: %d %s", path, rr.Code, rr.Body.String())
	}
	return rr.Body.String()
}

// readRecord decodes the record a disk backend holds for id.
func readRecord(t *testing.T, dir, id string) *SessionRecord {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join(dir, id+snapshotExt))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := decodeRecord(blob)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// metricValue returns one sample of the server's /metrics exposition.
func metricValue(t *testing.T, s *Server, key string) float64 {
	t.Helper()
	rr := do(t, s, "GET", "/metrics", "", nil)
	samples, err := obs.ParseText(rr.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, smp := range samples {
		if smp.Key() == key {
			return smp.Value
		}
	}
	t.Fatalf("metric %s not exposed", key)
	return 0
}

// TestLegacyRecordRestores loads a record written by the previous record
// layout, which embeds the whole result in session.last. It restores
// eagerly, serves the bytes the writing build served, and a re-plan in this
// build produces the same bytes.
func TestLegacyRecordRestores(t *testing.T) {
	blob, err := os.ReadFile("testdata/legacy_record.json")
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := decodeRecord(blob)
	if err != nil {
		t.Fatal(err)
	}
	if legacy.Session.Last == nil || legacy.Plan != nil {
		t.Fatal("fixture is not a legacy result-carrying record")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, legacy.ID+snapshotExt), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	s := diskOpener(t, dir)()
	if got := s.RestoredSessions(); got != 1 {
		t.Fatalf("restored %d sessions, want 1", got)
	}
	base := "/v1/sessions/" + legacy.ID
	want := map[string]string{}
	for path, file := range map[string]string{
		base + "/result?reports=1": "testdata/legacy_result_reports.json",
		base + "/skyline":          "testdata/legacy_skyline.json",
	} {
		b, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		want[path] = string(b)
		if got := mustGet(t, s, path); got != want[path] {
			t.Errorf("legacy restore: GET %s differs from the writing build:\nwant %s\ngot  %s", path, want[path], got)
		}
	}
	if n := statsOf(t, s).PlansComputed; n != 0 {
		t.Errorf("legacy restore planned %d times; its result is embedded", n)
	}
	mustPost(t, s, base+"/plan", "")
	if n := statsOf(t, s).PlansComputed; n != 1 {
		t.Fatalf("re-plan computed %d runs, want 1", n)
	}
	for path, w := range want {
		if got := mustGet(t, s, path); got != w {
			t.Errorf("re-plan: GET %s differs from the legacy result:\nwant %s\ngot  %s", path, w, got)
		}
	}
}

// TestRestoreIsLazy: records carry the plan intent, not the result; a
// restart decodes no result, reports hasResult without deriving, and the
// first result access derives it once through a re-plan.
func TestRestoreIsLazy(t *testing.T) {
	dir := t.TempDir()
	open := diskOpener(t, dir)
	s1 := open()
	id := createSession(t, s1, "lazy")
	mustPost(t, s1, "/v1/sessions/"+id+"/plan", "")
	skyline := mustGet(t, s1, "/v1/sessions/"+id+"/skyline")

	rec := readRecord(t, dir, id)
	if rec.Session.Last != nil {
		t.Fatal("record embeds the result")
	}
	if rec.Plan == nil || rec.Plan.Key == "" || rec.Plan.Config != nil {
		t.Fatalf("record plan intent %+v, want a key and no per-request config", rec.Plan)
	}
	if n := metricValue(t, s1, "poiesis_session_record_bytes_count"); n < 2 {
		t.Errorf("record_bytes observed %v writes, want create and plan", n)
	}

	s2 := open()
	var sj sessionJSON
	do(t, s2, "GET", "/v1/sessions/"+id, "", &sj)
	if !sj.HasResult {
		t.Error("restored session with a plan intent reports hasResult false")
	}
	if st := statsOf(t, s2); st.PlansComputed != 0 || st.CacheMisses != 0 {
		t.Errorf("restore or detail read derived the result: %+v", st)
	}
	if got := mustGet(t, s2, "/v1/sessions/"+id+"/skyline"); got != skyline {
		t.Errorf("re-derived skyline differs:\nbefore %s\nafter  %s", skyline, got)
	}
	mustGet(t, s2, "/v1/sessions/"+id+"/result")
	if n := statsOf(t, s2).PlansComputed; n != 1 {
		t.Errorf("derived %d times, want once", n)
	}
	if n := metricValue(t, s2, `poiesis_session_rederive_total{source="plan"}`); n != 1 {
		t.Errorf("rederive{source=plan} = %v, want 1", n)
	}
}

// TestCancelledDerivationStaysPending: a derivation cancelled by its client
// leaves the session pending, and the next reader derives it.
func TestCancelledDerivationStaysPending(t *testing.T) {
	dir := t.TempDir()
	open := diskOpener(t, dir)
	s1 := open()
	id := createSession(t, s1, "cancelled")
	mustPost(t, s1, "/v1/sessions/"+id+"/plan", "")
	want := mustGet(t, s1, "/v1/sessions/"+id+"/skyline")

	s2 := open()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rr := httptest.NewRecorder()
	s2.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/sessions/"+id+"/skyline", nil).WithContext(ctx))
	if rr.Code != statusClientClosedRequest {
		t.Fatalf("cancelled first read: %d %s", rr.Code, rr.Body.String())
	}
	var sj sessionJSON
	do(t, s2, "GET", "/v1/sessions/"+id, "", &sj)
	if !sj.HasResult {
		t.Error("cancelled derivation dropped the plan intent")
	}
	if got := mustGet(t, s2, "/v1/sessions/"+id+"/skyline"); got != want {
		t.Errorf("retried derivation differs:\nbefore %s\nafter  %s", want, got)
	}
}

// TestConcurrentFirstReadsDeriveOnce: concurrent first reads of a restored
// session share one derivation — one computed plan, no 409s, identical
// bytes. CI runs this under -race.
func TestConcurrentFirstReadsDeriveOnce(t *testing.T) {
	dir := t.TempDir()
	open := diskOpener(t, dir)
	s1 := open()
	id := createSession(t, s1, "herd")
	mustPost(t, s1, "/v1/sessions/"+id+"/plan", "")
	want := map[string]string{}
	paths := []string{"/v1/sessions/" + id + "/result?reports=1", "/v1/sessions/" + id + "/skyline"}
	for _, p := range paths {
		want[p] = mustGet(t, s1, p)
	}

	s2 := open()
	before := statsOf(t, s2).PlansComputed
	const readers = 8
	var wg sync.WaitGroup
	type reply struct {
		path string
		code int
		body string
	}
	replies := make(chan reply, readers)
	for i := 0; i < readers; i++ {
		path := paths[i%len(paths)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			rr := httptest.NewRecorder()
			s2.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
			replies <- reply{path, rr.Code, rr.Body.String()}
		}()
	}
	wg.Wait()
	close(replies)
	for r := range replies {
		if r.code != http.StatusOK {
			t.Errorf("GET %s: %d %s", r.path, r.code, r.body)
		} else if r.body != want[r.path] {
			t.Errorf("GET %s differs after restart", r.path)
		}
	}
	if delta := statsOf(t, s2).PlansComputed - before; delta != 1 {
		t.Errorf("concurrent first reads computed %d plans, want 1", delta)
	}
}

// TestPerRequestConfigRederives: a plan made with its own config document
// re-derives under that document after a restart, not the session's.
func TestPerRequestConfigRederives(t *testing.T) {
	dir := t.TempDir()
	open := diskOpener(t, dir)
	s1 := open()
	const perRequest = `{"config":{"policy":"exhaustive","depth":1,"sim":{"runs":4,"defaultRows":100}}}`
	id := createSession(t, s1, "per-request")
	mustPost(t, s1, "/v1/sessions/"+id+"/plan", perRequest)
	want := mustGet(t, s1, "/v1/sessions/"+id+"/result?reports=1")

	// The per-request result must differ from the session config's, or the
	// comparison below would not show which config the re-plan used.
	other := createSession(t, s1, "per-request")
	mustPost(t, s1, "/v1/sessions/"+other+"/plan", "")
	if mustGet(t, s1, "/v1/sessions/"+other+"/result?reports=1") == want {
		t.Fatal("per-request and session configs plan the same result")
	}
	if rec := readRecord(t, dir, id); rec.Plan == nil || rec.Plan.Config == nil {
		t.Fatalf("record lost the per-request config: %+v", rec.Plan)
	}

	s2 := open()
	if got := mustGet(t, s2, "/v1/sessions/"+id+"/result?reports=1"); got != want {
		t.Errorf("per-request plan re-derived differently:\nbefore %s\nafter  %s", want, got)
	}
	if n := statsOf(t, s2).PlansComputed; n != 1 {
		t.Errorf("derived with %d plans, want 1", n)
	}
}

// TestIntentMismatchAnswersUnplanned: a plan intent whose key the restored
// session does not reproduce is dropped; the session answers as one that
// has not planned, and planning again works.
func TestIntentMismatchAnswersUnplanned(t *testing.T) {
	dir := t.TempDir()
	open := diskOpener(t, dir)
	s1 := open()
	id := createSession(t, s1, "mismatch")
	mustPost(t, s1, "/v1/sessions/"+id+"/plan", "")
	rec := readRecord(t, dir, id)
	rec.Plan.Key = "not-this-session's-key"
	blob, err := encodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, id+snapshotExt), blob, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := open()
	base := "/v1/sessions/" + id
	if rr := do(t, s2, "GET", base+"/result", "", nil); rr.Code != http.StatusNotFound {
		t.Errorf("result with a mismatched intent: %d, want 404", rr.Code)
	}
	var sj sessionJSON
	do(t, s2, "GET", base, "", &sj)
	if sj.HasResult {
		t.Error("dropped intent still reports hasResult")
	}
	if rr := do(t, s2, "POST", base+"/select", `{"index":0}`, nil); rr.Code != http.StatusBadRequest {
		t.Errorf("select with no result: %d, want 400", rr.Code)
	}
	if n := statsOf(t, s2).PlansComputed; n != 0 {
		t.Errorf("mismatched intent was planned %d times", n)
	}
	mustPost(t, s2, base+"/plan", "")
	mustPost(t, s2, base+"/select", `{"index":0}`)
	if rec := readRecord(t, dir, id); rec.Plan != nil {
		t.Errorf("select left a plan intent in the record: %+v", rec.Plan)
	}
}

// TestRecordSizeIndependentOfAlternatives: the record written after a plan
// is the same size whether the plan evaluated a handful of alternatives or
// an exhaustive depth-2 space.
func TestRecordSizeIndependentOfAlternatives(t *testing.T) {
	backend := NewMemoryBackend()
	s := New(Config{Backend: backend, Logf: t.Logf, Now: func() time.Time { return time.Unix(9000, 0) }})
	size := func(depth int) (alternatives, bytes int) {
		body := fmt.Sprintf(`{"flow":{"builtin":"tpcds-purchases"},"scale":100,
			"config":{"policy":"exhaustive","depth":%d,"sim":{"runs":2,"defaultRows":100}}}`, depth)
		var sj sessionJSON
		if rr := do(t, s, "POST", "/v1/sessions", body, &sj); rr.Code != http.StatusCreated {
			t.Fatalf("create: %d %s", rr.Code, rr.Body.String())
		}
		var res resultJSON
		if rr := do(t, s, "POST", "/v1/sessions/"+sj.ID+"/plan", "", &res); rr.Code != http.StatusOK {
			t.Fatalf("plan depth %d: %d %s", depth, rr.Code, rr.Body.String())
		}
		rec, err := backend.Get(sj.ID)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := encodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		return res.Alternatives, len(blob)
	}
	alts1, size1 := size(1)
	alts2, size2 := size(2)
	if alts2 < 4*alts1 {
		t.Fatalf("depth 2 evaluated %d alternatives against %d at depth 1; the comparison needs a larger space", alts2, alts1)
	}
	// The configs differ in one digit, the session IDs are equal length and
	// the clock is frozen, so any size difference would be result bytes.
	if size1 != size2 {
		t.Errorf("record after a %d-alternative plan is %d bytes, after a %d-alternative plan %d bytes",
			alts1, size1, alts2, size2)
	}
}

// TestPersistSpan: a traced plan's tree names the write-through as
// session.persist, with the backend put under it.
func TestPersistSpan(t *testing.T) {
	s := newTestServer(t)
	id := createSession(t, s, "persist-span")
	rr := do(t, s, "POST", "/v1/sessions/"+id+"/plan", "", nil)
	tid := rr.Header().Get(obs.TraceIDHeader)
	var doc traceDoc
	if rr := do(t, s, "GET", "/v1/traces/"+tid, "", &doc); rr.Code != http.StatusOK {
		t.Fatalf("trace %q: %d", tid, rr.Code)
	}
	var persist string
	for _, sp := range doc.Spans {
		if sp.Name == "session.persist" {
			persist = sp.SpanID
		}
	}
	if persist == "" {
		t.Fatalf("no session.persist span in %+v", doc.Spans)
	}
	for _, sp := range doc.Spans {
		if sp.Name == "backend.put" && sp.ParentID != persist {
			t.Errorf("backend.put parented under %s, want session.persist %s", sp.ParentID, persist)
		}
	}
}

// TestClusterRestartCacheOwnerDown: a replica restarts while the replica
// that owns its session's plan key in the shared cache is down. The first
// read cannot fetch the result from the owner, so it re-plans, and the
// re-plan serves the bytes served before the restart.
func TestClusterRestartCacheOwnerDown(t *testing.T) {
	const n = 3
	var handlers [n]atomic.Pointer[Server]
	var tss [n]*httptest.Server
	var members []cluster.Member
	for i := range tss {
		i := i
		tss[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			handlers[i].Load().ServeHTTP(w, r)
		}))
		t.Cleanup(tss[i].Close)
		members = append(members, cluster.Member{ID: fmt.Sprintf("n%d", i), URL: tss[i].URL})
	}
	dirs := [n]string{t.TempDir(), t.TempDir(), t.TempDir()}
	t0 := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	clock := func() time.Time { return t0 }
	open := func(i int) *Server {
		cl, err := cluster.New(cluster.Config{Self: members[i].ID, Members: members, Logf: t.Logf, Now: clock})
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewDiskBackend(dirs[i])
		if err != nil {
			t.Fatal(err)
		}
		s := New(Config{Cluster: cl, Backend: b, Logf: t.Logf, Now: clock})
		handlers[i].Store(s)
		return s
	}
	var servers [n]*Server
	for i := range servers {
		servers[i] = open(i)
	}

	// Every session of this config plans under one key; find its owner,
	// then keep the session on another replica.
	probe := clusterCreateSession(t, tss[0].URL, "probe")
	if code, b := httpDo(t, "POST", tss[0].URL+"/v1/sessions/"+probe+"/plan", ""); code != http.StatusOK {
		t.Fatalf("plan: %d %s", code, b)
	}
	key := readRecord(t, dirs[0], probe).Plan.Key
	cacheOwner := servers[0].cluster.Owner(cluster.CacheKey(key))
	home := 0
	for home < n && members[home].ID == cacheOwner {
		home++
	}
	id := probe
	if home != 0 {
		id = clusterCreateSession(t, tss[home].URL, "away-from-cache-owner")
		if code, b := httpDo(t, "POST", tss[home].URL+"/v1/sessions/"+id+"/plan", ""); code != http.StatusOK {
			t.Fatalf("plan: %d %s", code, b)
		}
	}
	resultPath := "/v1/sessions/" + id + "/result?reports=1"
	code, want := httpDo(t, "GET", tss[home].URL+resultPath, "")
	if code != http.StatusOK {
		t.Fatalf("result: %d", code)
	}

	for i, m := range members {
		if m.ID == cacheOwner {
			tss[i].Close()
		}
	}
	restarted := open(home)
	code, got := httpDo(t, "GET", tss[home].URL+resultPath, "")
	if code != http.StatusOK {
		t.Fatalf("result after restart: %d %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("re-planned result differs:\nbefore %s\nafter  %s", want, got)
	}
	if st := statsOf(t, restarted); st.PlansComputed != 1 {
		t.Errorf("restarted replica computed %d plans, want 1", st.PlansComputed)
	}
	if v := metricValue(t, restarted, `poiesis_session_rederive_total{source="plan"}`); v != 1 {
		t.Errorf("rederive{source=plan} = %v, want 1", v)
	}
}

// FuzzDecodeRecord: arbitrary bytes through decodeRecord and restoreState
// must never panic — a corrupted record is skipped, not a crashed startup.
func FuzzDecodeRecord(f *testing.F) {
	legacy, err := os.ReadFile("testdata/legacy_record.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy)
	backend := NewMemoryBackend()
	s := New(Config{Backend: backend})
	var sj sessionJSON
	do(f, s, "POST", "/v1/sessions", fastPlanBody("fuzz"), &sj)
	do(f, s, "POST", "/v1/sessions/"+sj.ID+"/plan", `{"config":{"policy":"greedy","topK":1,"depth":1}}`, nil)
	rec, err := backend.Get(sj.ID)
	if err != nil {
		f.Fatal(err)
	}
	intent, err := encodeRecord(rec)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(intent)
	f.Add([]byte(`{"version":1,"id":"x","session":{"version":1,"flow":{"name":"f","nodes":[],"edges":[]}},"plan":{"key":""}}`))
	f.Add([]byte(`{"id":"x","session":null}`))
	f.Fuzz(func(t *testing.T, blob []byte) {
		rec, err := decodeRecord(blob)
		if err != nil {
			return
		}
		st, err := restoreState(rec)
		if err != nil {
			return
		}
		_ = toSessionJSON(st, true)
	})
}
