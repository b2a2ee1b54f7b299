package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"poiesis/internal/data"
	"poiesis/internal/etl"
	"poiesis/internal/fcp"
	"poiesis/internal/measures"
	"poiesis/internal/sim"
)

// SnapshotFormatVersion is the current serialization format of
// SessionSnapshot. RestoreSession rejects snapshots written by a newer
// format; bumping this constant (with a migration path for older records) is
// how future format changes stay loadable.
const SnapshotFormatVersion = 1

// SessionSnapshot is the crash-safe serialized form of a Session: the
// analyst's intent — the current flow design (the etl JSON wire format), the
// source binding and the accepted selection history — as one versioned JSON
// document. A service persists snapshots so sessions survive restarts, and
// because the record is self-contained it can be shipped to another replica
// and restored there (the enabling property for routing sessions by ID).
//
// The last planning result is derived state, not intent: planning is
// deterministic in (flow, binding, options), so Snapshot leaves it out and a
// service re-derives it on demand (a plan-cache hit or a re-plan, see
// PlanKey). Last is still read: snapshots written by earlier builds embed the
// result there, and RestoreSession restores it eagerly.
//
// The planner is deliberately absent: planner options contain interfaces and
// callbacks that do not serialize. Callers persist their own options spec
// (e.g. a config document) next to the snapshot and rebuild the planner when
// restoring.
type SessionSnapshot struct {
	Version int                 `json:"version"`
	Flow    json.RawMessage     `json:"flow"`
	Binding []SourceSnapshot    `json:"binding,omitempty"`
	History []SelectionSnapshot `json:"history,omitempty"`
	Last    *ResultSnapshot     `json:"last,omitempty"`
}

// SourceSnapshot serializes one synthetic source binding (node → SourceSpec).
type SourceSnapshot struct {
	Node           string          `json:"node"`
	Name           string          `json:"name,omitempty"`
	Schema         []etl.Attribute `json:"schema,omitempty"`
	Rows           int             `json:"rows,omitempty"`
	UpdatesPerHour float64         `json:"updatesPerHour,omitempty"`
	Seed           uint64          `json:"seed,omitempty"`
	NullRate       float64         `json:"nullRate,omitempty"`
	DupRate        float64         `json:"dupRate,omitempty"`
	ErrorRate      float64         `json:"errorRate,omitempty"`
}

// SelectionSnapshot serializes one SelectionRecord.
type SelectionSnapshot struct {
	Iteration   int     `json:"iteration"`
	Label       string  `json:"label"`
	ScoreBefore float64 `json:"scoreBefore"`
	ScoreAfter  float64 `json:"scoreAfter"`
}

// ResultSnapshot serializes a planning Result, including the full evaluated
// alternative space — not just the frontier — so a restored result can still
// integrate any skyline member by index and re-derive every projection
// (scatter, pattern usage, explanations) byte-identically. It is the wire
// form of the service's shared plan-cache tier and the Last field of legacy
// session snapshots.
type ResultSnapshot struct {
	Dims         []string              `json:"dims,omitempty"`
	Stats        StatsSnapshot         `json:"stats"`
	Initial      AlternativeSnapshot   `json:"initial"`
	Alternatives []AlternativeSnapshot `json:"alternatives,omitempty"`
	SkylineIdx   []int                 `json:"skylineIdx,omitempty"`
}

// StatsSnapshot serializes run statistics.
type StatsSnapshot struct {
	CandidatesSeen     int  `json:"candidatesSeen,omitempty"`
	Generated          int  `json:"generated,omitempty"`
	Deduped            int  `json:"deduped,omitempty"`
	Evaluated          int  `json:"evaluated,omitempty"`
	ConstraintRejected int  `json:"constraintRejected,omitempty"`
	StaticPruned       int  `json:"staticPruned,omitempty"`
	Capped             bool `json:"capped,omitempty"`
}

// AlternativeSnapshot serializes one evaluated design.
type AlternativeSnapshot struct {
	Flow         json.RawMessage       `json:"flow"`
	Applications []ApplicationSnapshot `json:"applications,omitempty"`
	Report       *ReportSnapshot       `json:"report,omitempty"`
	Err          string                `json:"error,omitempty"`
}

// ApplicationSnapshot serializes one pattern deployment.
type ApplicationSnapshot struct {
	Pattern string   `json:"pattern"`
	Kind    string   `json:"kind"`
	Node    string   `json:"node,omitempty"`
	From    string   `json:"from,omitempty"`
	To      string   `json:"to,omitempty"`
	Added   []string `json:"added,omitempty"`
}

// ReportSnapshot serializes a measure report tree.
type ReportSnapshot struct {
	Flow        string         `json:"flow,omitempty"`
	Fingerprint string         `json:"fingerprint,omitempty"`
	Chars       []CharSnapshot `json:"characteristics,omitempty"`
}

// CharSnapshot serializes one characteristic report.
type CharSnapshot struct {
	Characteristic string            `json:"characteristic"`
	Score          float64           `json:"score"`
	Measures       []MeasureSnapshot `json:"measures,omitempty"`
}

// MeasureSnapshot serializes one measure (recursively over its detail tree).
type MeasureSnapshot struct {
	Name           string            `json:"name"`
	Value          float64           `json:"value"`
	Unit           string            `json:"unit,omitempty"`
	HigherIsBetter bool              `json:"higherIsBetter,omitempty"`
	Detail         []MeasureSnapshot `json:"detail,omitempty"`
}

// Snapshot captures the session's durable state — flow, binding and history,
// never the last result (see SessionSnapshot) — under the session lock. It
// is safe to call concurrently with accessors and with an in-flight
// exploration: the exploration publishes its result only after Snapshot's
// critical section, so the snapshot is simply taken before or after the run,
// never mid-write.
func (s *Session) Snapshot() (*SessionSnapshot, error) {
	s.mu.Lock()
	cur := s.current
	history := append([]SelectionRecord(nil), s.history...)
	s.mu.Unlock()

	// Graphs are immutable once published (patterns apply to clones) and the
	// binding is immutable after construction, so serialization can happen
	// outside the lock.
	flow, err := json.Marshal(cur)
	if err != nil {
		return nil, fmt.Errorf("core: snapshotting flow: %w", err)
	}
	snap := &SessionSnapshot{
		Version: SnapshotFormatVersion,
		Flow:    flow,
		Binding: snapshotBinding(s.bind),
	}
	for _, rec := range history {
		snap.History = append(snap.History, SelectionSnapshot(rec))
	}
	return snap, nil
}

// RestoreSession rebuilds a Session from a snapshot. The planner is supplied
// by the caller (nil uses the default planner) because planner options do not
// serialize — see SessionSnapshot. A legacy snapshot's embedded Last result
// is restored eagerly; snapshots written by a newer format version are
// rejected rather than half-loaded.
func RestoreSession(planner *Planner, snap *SessionSnapshot) (*Session, error) {
	if snap == nil {
		return nil, errors.New("core: RestoreSession: nil snapshot")
	}
	if snap.Version != SnapshotFormatVersion {
		return nil, fmt.Errorf("core: RestoreSession: unsupported snapshot format version %d (supported: %d)",
			snap.Version, SnapshotFormatVersion)
	}
	g, err := decodeSnapshotGraph(snap.Flow)
	if err != nil {
		return nil, fmt.Errorf("core: RestoreSession: current flow: %w", err)
	}
	if planner == nil {
		planner = NewPlanner(nil, Options{})
	}
	s := &Session{planner: planner, bind: restoreBinding(snap.Binding), current: g}
	for _, rec := range snap.History {
		s.history = append(s.history, SelectionRecord(rec))
	}
	if snap.Last != nil {
		res, err := restoreResult(snap.Last)
		if err != nil {
			return nil, fmt.Errorf("core: RestoreSession: last result: %w", err)
		}
		s.last = res
	}
	return s, nil
}

// SnapshotResult serializes one planning Result on its own — the full
// evaluated space, stats and skyline, exactly as legacy session snapshots
// embed it in Last.
// The HTTP service's shared plan-cache tier ships results between replicas
// in this form: restoring yields a Result that serves responses
// byte-identical to the original's.
func SnapshotResult(res *Result) (*ResultSnapshot, error) {
	if res == nil {
		return nil, errors.New("core: SnapshotResult: nil result")
	}
	return snapshotResult(res)
}

// RestoreResult rebuilds a Result from its snapshot.
func RestoreResult(rs *ResultSnapshot) (*Result, error) {
	if rs == nil {
		return nil, errors.New("core: RestoreResult: nil snapshot")
	}
	return restoreResult(rs)
}

func decodeSnapshotGraph(raw json.RawMessage) (*etl.Graph, error) {
	if len(raw) == 0 {
		return nil, errors.New("missing flow")
	}
	var g etl.Graph
	if err := g.UnmarshalJSON(raw); err != nil {
		return nil, err
	}
	return &g, nil
}

func snapshotBinding(bind sim.Binding) []SourceSnapshot {
	out := make([]SourceSnapshot, 0, len(bind))
	for id, spec := range bind {
		out = append(out, SourceSnapshot{
			Node:           string(id),
			Name:           spec.Name,
			Schema:         append([]etl.Attribute(nil), spec.Schema.Attrs...),
			Rows:           spec.Rows,
			UpdatesPerHour: spec.UpdatesPerHour,
			Seed:           spec.Seed,
			NullRate:       spec.Defects.NullRate,
			DupRate:        spec.Defects.DupRate,
			ErrorRate:      spec.Defects.ErrorRate,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

func restoreBinding(srcs []SourceSnapshot) sim.Binding {
	if len(srcs) == 0 {
		return sim.Binding{}
	}
	bind := make(sim.Binding, len(srcs))
	for _, s := range srcs {
		bind[etl.NodeID(s.Node)] = data.SourceSpec{
			Name:           s.Name,
			Schema:         etl.Schema{Attrs: append([]etl.Attribute(nil), s.Schema...)},
			Rows:           s.Rows,
			UpdatesPerHour: s.UpdatesPerHour,
			Seed:           s.Seed,
			Defects: data.Defects{
				NullRate:  s.NullRate,
				DupRate:   s.DupRate,
				ErrorRate: s.ErrorRate,
			},
		}
	}
	return bind
}

func snapshotResult(res *Result) (*ResultSnapshot, error) {
	initial, err := snapshotAlternative(&res.Initial)
	if err != nil {
		return nil, err
	}
	out := &ResultSnapshot{
		Dims:       dimsToStrings(res.Dims),
		Stats:      StatsSnapshot(res.Stats),
		Initial:    initial,
		SkylineIdx: append([]int(nil), res.SkylineIdx...),
	}
	for i := range res.Alternatives {
		alt, err := snapshotAlternative(&res.Alternatives[i])
		if err != nil {
			return nil, err
		}
		out.Alternatives = append(out.Alternatives, alt)
	}
	return out, nil
}

func restoreResult(rs *ResultSnapshot) (*Result, error) {
	initial, err := restoreAlternative(&rs.Initial)
	if err != nil {
		return nil, fmt.Errorf("initial: %w", err)
	}
	res := &Result{
		Initial: initial,
		Dims:    stringsToDims(rs.Dims),
		Stats:   Stats(rs.Stats),
	}
	for i := range rs.Alternatives {
		alt, err := restoreAlternative(&rs.Alternatives[i])
		if err != nil {
			return nil, fmt.Errorf("alternative %d: %w", i, err)
		}
		res.Alternatives = append(res.Alternatives, alt)
	}
	for _, idx := range rs.SkylineIdx {
		if idx < 0 || idx >= len(res.Alternatives) {
			return nil, fmt.Errorf("skyline index %d out of range [0,%d)", idx, len(res.Alternatives))
		}
		res.SkylineIdx = append(res.SkylineIdx, idx)
	}
	return res, nil
}

func snapshotAlternative(a *Alternative) (AlternativeSnapshot, error) {
	flow, err := json.Marshal(a.Graph)
	if err != nil {
		return AlternativeSnapshot{}, fmt.Errorf("core: snapshotting alternative flow: %w", err)
	}
	out := AlternativeSnapshot{Flow: flow, Report: snapshotReport(a.Report)}
	if a.Err != nil {
		out.Err = a.Err.Error()
	}
	for _, app := range a.Applications {
		as := ApplicationSnapshot{
			Pattern: app.Pattern,
			Kind:    app.Point.Kind.String(),
		}
		switch app.Point.Kind {
		case fcp.NodePoint:
			as.Node = string(app.Point.Node)
		case fcp.EdgePoint:
			as.From = string(app.Point.Edge.From)
			as.To = string(app.Point.Edge.To)
		}
		for _, id := range app.Added {
			as.Added = append(as.Added, string(id))
		}
		out.Applications = append(out.Applications, as)
	}
	return out, nil
}

func restoreAlternative(as *AlternativeSnapshot) (Alternative, error) {
	g, err := decodeSnapshotGraph(as.Flow)
	if err != nil {
		return Alternative{}, err
	}
	alt := Alternative{Graph: g, Report: restoreReport(as.Report)}
	if as.Err != "" {
		alt.Err = errors.New(as.Err)
	}
	for i, app := range as.Applications {
		fa := fcp.Application{Pattern: app.Pattern}
		switch app.Kind {
		case fcp.NodePoint.String():
			fa.Point = fcp.AtNode(etl.NodeID(app.Node))
		case fcp.EdgePoint.String():
			fa.Point = fcp.AtEdge(etl.NodeID(app.From), etl.NodeID(app.To))
		case fcp.GraphPoint.String():
			fa.Point = fcp.AtGraph()
		default:
			return Alternative{}, fmt.Errorf("application %d: unknown point kind %q", i, app.Kind)
		}
		for _, id := range app.Added {
			fa.Added = append(fa.Added, etl.NodeID(id))
		}
		alt.Applications = append(alt.Applications, fa)
	}
	return alt, nil
}

func snapshotReport(r *measures.Report) *ReportSnapshot {
	if r == nil {
		return nil
	}
	out := &ReportSnapshot{Flow: r.Flow, Fingerprint: r.Fingerprint}
	for _, cr := range r.Chars {
		cs := CharSnapshot{Characteristic: string(cr.Characteristic), Score: cr.Score}
		for _, m := range cr.Measures {
			cs.Measures = append(cs.Measures, snapshotMeasure(m))
		}
		out.Chars = append(out.Chars, cs)
	}
	return out
}

func restoreReport(rs *ReportSnapshot) *measures.Report {
	if rs == nil {
		return nil
	}
	out := &measures.Report{Flow: rs.Flow, Fingerprint: rs.Fingerprint}
	for _, cs := range rs.Chars {
		cr := measures.CharacteristicReport{
			Characteristic: measures.Characteristic(cs.Characteristic),
			Score:          cs.Score,
		}
		for _, m := range cs.Measures {
			cr.Measures = append(cr.Measures, restoreMeasure(m))
		}
		out.Chars = append(out.Chars, cr)
	}
	return out
}

func snapshotMeasure(m measures.Measure) MeasureSnapshot {
	out := MeasureSnapshot{
		Name: m.Name, Value: m.Value, Unit: m.Unit, HigherIsBetter: m.HigherIsBetter,
	}
	for _, d := range m.Detail {
		out.Detail = append(out.Detail, snapshotMeasure(d))
	}
	return out
}

func restoreMeasure(ms MeasureSnapshot) measures.Measure {
	out := measures.Measure{
		Name: ms.Name, Value: ms.Value, Unit: ms.Unit, HigherIsBetter: ms.HigherIsBetter,
	}
	for _, d := range ms.Detail {
		out.Detail = append(out.Detail, restoreMeasure(d))
	}
	return out
}

func dimsToStrings(dims []measures.Characteristic) []string {
	out := make([]string, len(dims))
	for i, d := range dims {
		out[i] = string(d)
	}
	return out
}

func stringsToDims(dims []string) []measures.Characteristic {
	out := make([]measures.Characteristic, len(dims))
	for i, d := range dims {
		out[i] = measures.Characteristic(d)
	}
	return out
}
