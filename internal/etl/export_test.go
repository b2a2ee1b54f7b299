package etl

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestDOT(t *testing.T) {
	g := diamondFlow(t)
	gen := NewNode(g.FreshID("gen"), "added", OpFilterNull, g.Node("src").Out)
	gen.PatternName = "FilterNullValues"
	if err := g.InsertOnEdge("src", "split", gen); err != nil {
		t.Fatal(err)
	}
	dot := g.DOT()
	for _, want := range []string{
		"digraph", `"src"`, `"load"`, "invhouse", "house", "diamond",
		`fillcolor="#ffd8a8"`, `"src" -> `,
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
}

func TestDOTEscaping(t *testing.T) {
	g := New("q")
	n := NewNode("a", `na"me`, OpExtract, Schema{})
	g.MustAddNode(n)
	dot := g.DOT()
	if strings.Contains(dot, `na"me`) && !strings.Contains(dot, `na\"me`) {
		t.Error("quote not escaped in DOT label")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := linearFlow(t)
	g.Node("flt").SetParam("predicate", "amount > 0")
	g.Node("drv").Parallelism = 4
	b, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var g2 Graph
	if err := json.Unmarshal(b, &g2); err != nil {
		t.Fatal(err)
	}
	if g2.Fingerprint() != g.Fingerprint() {
		t.Error("JSON round trip changed the fingerprint")
	}
	if g2.Node("flt").Param("predicate") != "amount > 0" {
		t.Error("params lost")
	}
	if g2.Node("drv").Parallelism != 4 {
		t.Error("parallelism lost")
	}
	if g2.Node("src").Cost != g.Node("src").Cost {
		t.Error("cost lost")
	}
}

// TestJSONRoundTripKeepsFreshIDCounter: a redesigned flow restored from
// JSON resumes its fresh-ID counter, so the next pattern application mints
// the same ID it would have minted on the original — the property that lets
// a restored session re-plan to byte-identical alternatives.
func TestJSONRoundTripKeepsFreshIDCounter(t *testing.T) {
	g := diamondFlow(t)
	gen := NewNode(g.FreshID("gen"), "added", OpFilterNull, g.Node("src").Out)
	if err := g.InsertOnEdge("src", "split", gen); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var g2 Graph
	if err := json.Unmarshal(b, &g2); err != nil {
		t.Fatal(err)
	}
	if got, want := g2.FreshID("dedup"), g.FreshID("dedup"); got != want {
		t.Errorf("restored flow minted %s, original minted %s", got, want)
	}
	// A flow never redesigned carries no counter on the wire.
	fresh, err := json.Marshal(diamondFlow(t))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(fresh), `"seq"`) {
		t.Errorf("pristine flow serialized a counter: %s", fresh)
	}
}

func TestJSONUnmarshalErrors(t *testing.T) {
	cases := map[string]string{
		"garbage":      `{{{`,
		"unknown kind": `{"name":"x","nodes":[{"id":"a","name":"a","kind":"teleport"}]}`,
		"bad edge":     `{"name":"x","nodes":[{"id":"a","name":"a","kind":"extract"}],"edges":[{"from":"a","to":"b"}]}`,
		"invalid flow": `{"name":"x","nodes":[{"id":"a","name":"a","kind":"filter"}]}`,
	}
	for label, doc := range cases {
		var g Graph
		if err := json.Unmarshal([]byte(doc), &g); err == nil {
			t.Errorf("%s: expected error", label)
		}
	}
}

func TestDiffFlows(t *testing.T) {
	base := linearFlow(t)
	next := base.Clone()
	if d := DiffFlows(base, next); !d.IsEmpty() || d.String() != "(identical)" {
		t.Errorf("identical flows diff = %v", d)
	}
	// Add a node on an edge.
	n := NewNode(next.FreshID("x"), "cleaner", OpFilterNull, next.Node("src").Out)
	if err := next.InsertOnEdge("src", "flt", n); err != nil {
		t.Fatal(err)
	}
	// And change a node's configuration.
	next.MutableNode("drv").SetParam("expr", "a+b")
	d := DiffFlows(base, next)
	if len(d.AddedNodes) != 1 || d.AddedNodes[0] != n.ID {
		t.Errorf("added nodes = %v", d.AddedNodes)
	}
	if len(d.RemovedNodes) != 0 {
		t.Errorf("removed nodes = %v", d.RemovedNodes)
	}
	if len(d.ChangedNodes) != 1 || d.ChangedNodes[0] != "drv" {
		t.Errorf("changed nodes = %v", d.ChangedNodes)
	}
	if len(d.AddedEdges) != 2 || len(d.RemovedEdges) != 1 {
		t.Errorf("edges: +%v -%v", d.AddedEdges, d.RemovedEdges)
	}
	s := d.String()
	for _, want := range []string{"+" + string(n.ID), "~drv", "-src->flt"} {
		if !strings.Contains(s, want) {
			t.Errorf("diff string missing %q: %s", want, s)
		}
	}
	// Reverse direction: the node appears as removed.
	rd := DiffFlows(next, base)
	if len(rd.RemovedNodes) != 1 || rd.RemovedNodes[0] != n.ID {
		t.Errorf("reverse removed = %v", rd.RemovedNodes)
	}
}

func TestSwapWithPredecessor(t *testing.T) {
	// src -> drv -> flt -> load, then push flt before drv.
	s := NewSchema(
		Attribute{Name: "id", Type: TypeInt, Key: true},
		Attribute{Name: "v", Type: TypeFloat},
	)
	g := NewBuilder("swap").
		Op("src", "S", OpExtract, s).
		Op("drv", "derive", OpDerive, s).
		Op("flt", "filter", OpFilter, s).
		Op("ld", "DW", OpLoad, Schema{}).
		MustBuild()
	if err := g.SwapWithPredecessor("flt"); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge("src", "flt") || !g.HasEdge("flt", "drv") || !g.HasEdge("drv", "ld") {
		t.Errorf("swap wiring wrong:\n%s", g)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("invalid after swap: %v", err)
	}
	if g.Len() != 4 || g.EdgeCount() != 3 {
		t.Error("swap changed the node/edge count")
	}
}

func TestSwapWithPredecessorErrors(t *testing.T) {
	g := diamondFlow(t)
	if err := g.SwapWithPredecessor("zz"); err == nil {
		t.Error("unknown node should fail")
	}
	// merge has two inputs.
	if err := g.SwapWithPredecessor("merge"); err == nil {
		t.Error("multi-input node should fail")
	}
	// a's predecessor (split) has two outputs.
	if err := g.SwapWithPredecessor("a"); err == nil {
		t.Error("branching predecessor should fail")
	}
	// src has no predecessor.
	if err := g.SwapWithPredecessor("src"); err == nil {
		t.Error("source should fail")
	}
}
