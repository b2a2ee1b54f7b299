package etl

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// DOT renders the flow in Graphviz DOT format: operation kinds select node
// shapes, pattern-generated nodes are highlighted, and edges follow the
// transition order. Useful to inspect redesigns visually.
func (g *Graph) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", g.Name)
	b.WriteString("  rankdir=LR;\n  node [fontsize=10];\n")
	for _, n := range g.Nodes() {
		shape := "box"
		switch {
		case n.Kind.IsSource():
			shape = "invhouse"
		case n.Kind.IsSink():
			shape = "house"
		case n.Kind == OpSplit || n.Kind == OpPartition || n.Kind == OpMerge || n.Kind == OpUnion:
			shape = "diamond"
		case n.Kind == OpCheckpoint:
			shape = "cylinder"
		}
		style := ""
		if n.Generated {
			style = `, style=filled, fillcolor="#ffd8a8"`
		}
		fmt.Fprintf(&b, "  %q [label=\"%s\\n(%s)\", shape=%s%s];\n",
			string(n.ID), escapeDOT(n.Name), n.Kind, shape, style)
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "  %q -> %q;\n", string(e.From), string(e.To))
	}
	b.WriteString("}\n")
	return b.String()
}

func escapeDOT(s string) string {
	return strings.NewReplacer(`"`, `\"`, "\n", `\n`).Replace(s)
}

// jsonGraph is the JSON wire format of a flow (used by the CLI export and
// intended for UI consumption). Seq is the fresh-ID counter of a redesigned
// flow: the IDs later pattern applications mint depend on it, so a flow
// restored from JSON must resume the count for re-planning it to reproduce
// the original alternatives byte for byte.
type jsonGraph struct {
	Name  string     `json:"name"`
	Nodes []jsonNode `json:"nodes"`
	Edges []jsonEdge `json:"edges"`
	Seq   int        `json:"seq,omitempty"`
}

type jsonNode struct {
	ID          string            `json:"id"`
	Name        string            `json:"name"`
	Kind        string            `json:"kind"`
	Parallelism int               `json:"parallelism,omitempty"`
	Generated   bool              `json:"generated,omitempty"`
	Pattern     string            `json:"pattern,omitempty"`
	Schema      []jsonAttr        `json:"schema,omitempty"`
	Params      map[string]string `json:"params,omitempty"`
	Cost        jsonCost          `json:"cost"`
}

type jsonAttr struct {
	Name     string `json:"name"`
	Type     string `json:"type"`
	Nullable bool   `json:"nullable,omitempty"`
	Key      bool   `json:"key,omitempty"`
}

type jsonCost struct {
	Startup     float64 `json:"startup"`
	PerTuple    float64 `json:"perTuple"`
	Selectivity float64 `json:"selectivity"`
	FailureRate float64 `json:"failureRate"`
	MemPerTuple float64 `json:"memPerTuple,omitempty"`
}

type jsonEdge struct {
	From string `json:"from"`
	To   string `json:"to"`
}

// MarshalJSON renders the attribute in the same shape the flow wire format
// uses for node schemas (type as its lower-case name), so schemas embedded in
// other documents — e.g. session snapshots carrying source bindings — share
// one serialization with the graph export.
func (a Attribute) MarshalJSON() ([]byte, error) {
	return json.Marshal(jsonAttr{
		Name: a.Name, Type: a.Type.String(), Nullable: a.Nullable, Key: a.Key,
	})
}

// UnmarshalJSON is the inverse of Attribute.MarshalJSON.
func (a *Attribute) UnmarshalJSON(b []byte) error {
	var ja jsonAttr
	if err := json.Unmarshal(b, &ja); err != nil {
		return fmt.Errorf("etl: parsing attribute: %w", err)
	}
	*a = Attribute{Name: ja.Name, Type: ParseAttrType(ja.Type), Nullable: ja.Nullable, Key: ja.Key}
	return nil
}

// MarshalJSON implements json.Marshaler with a stable, UI-friendly format.
func (g *Graph) MarshalJSON() ([]byte, error) {
	doc := jsonGraph{Name: g.Name, Seq: g.seq}
	for _, n := range g.Nodes() {
		jn := jsonNode{
			ID:          string(n.ID),
			Name:        n.Name,
			Kind:        n.Kind.String(),
			Parallelism: n.Parallelism,
			Generated:   n.Generated,
			Pattern:     n.PatternName,
			Cost: jsonCost{
				Startup:     n.Cost.Startup,
				PerTuple:    n.Cost.PerTuple,
				Selectivity: n.Cost.Selectivity,
				FailureRate: n.Cost.FailureRate,
				MemPerTuple: n.Cost.MemPerTuple,
			},
		}
		for _, a := range n.Out.Attrs {
			jn.Schema = append(jn.Schema, jsonAttr{
				Name: a.Name, Type: a.Type.String(), Nullable: a.Nullable, Key: a.Key,
			})
		}
		if len(n.Params) > 0 {
			jn.Params = make(map[string]string, len(n.Params))
			for k, v := range n.Params {
				jn.Params[k] = v
			}
		}
		doc.Nodes = append(doc.Nodes, jn)
	}
	for _, e := range g.Edges() {
		doc.Edges = append(doc.Edges, jsonEdge{From: string(e.From), To: string(e.To)})
	}
	return json.Marshal(doc)
}

// UnmarshalJSON implements json.Unmarshaler; the result is validated.
func (g *Graph) UnmarshalJSON(b []byte) error {
	var doc jsonGraph
	if err := json.Unmarshal(b, &doc); err != nil {
		return fmt.Errorf("etl: parsing JSON flow: %w", err)
	}
	fresh := New(doc.Name)
	fresh.seq = max(doc.Seq, 0)
	for _, jn := range doc.Nodes {
		kind := ParseOpKind(jn.Kind)
		if kind == OpUnknown {
			return fmt.Errorf("etl: node %s has unknown kind %q", jn.ID, jn.Kind)
		}
		var schema Schema
		for _, a := range jn.Schema {
			schema.Attrs = append(schema.Attrs, Attribute{
				Name: a.Name, Type: ParseAttrType(a.Type), Nullable: a.Nullable, Key: a.Key,
			})
		}
		n := NewNode(NodeID(jn.ID), jn.Name, kind, schema)
		if jn.Parallelism > 0 {
			n.Parallelism = jn.Parallelism
		}
		n.Generated = jn.Generated
		n.PatternName = jn.Pattern
		n.Cost = Cost{
			Startup:     jn.Cost.Startup,
			PerTuple:    jn.Cost.PerTuple,
			Selectivity: jn.Cost.Selectivity,
			FailureRate: jn.Cost.FailureRate,
			MemPerTuple: jn.Cost.MemPerTuple,
		}
		for k, v := range jn.Params {
			n.SetParam(k, v)
		}
		if err := fresh.AddNode(n); err != nil {
			return err
		}
	}
	for _, e := range doc.Edges {
		if err := fresh.AddEdge(NodeID(e.From), NodeID(e.To)); err != nil {
			return err
		}
	}
	if err := fresh.Validate(); err != nil {
		return fmt.Errorf("etl: invalid JSON flow: %w", err)
	}
	g.adopt(fresh)
	return nil
}

// Diff describes the structural difference between two flows, typically an
// initial design and a redesign: which operations and transitions were
// added or removed. The Planner's selection UI uses it to summarise "what
// this alternative changes".
type Diff struct {
	AddedNodes   []NodeID
	RemovedNodes []NodeID
	AddedEdges   []Edge
	RemovedEdges []Edge
	// ChangedNodes lists nodes present in both flows whose configuration
	// (kind, name, schema, params, cost, parallelism) differs.
	ChangedNodes []NodeID
}

// IsEmpty reports whether the flows are structurally identical.
func (d Diff) IsEmpty() bool {
	return len(d.AddedNodes) == 0 && len(d.RemovedNodes) == 0 &&
		len(d.AddedEdges) == 0 && len(d.RemovedEdges) == 0 && len(d.ChangedNodes) == 0
}

// String renders a compact +/-/~ summary.
func (d Diff) String() string {
	var parts []string
	for _, n := range d.AddedNodes {
		parts = append(parts, "+"+string(n))
	}
	for _, n := range d.RemovedNodes {
		parts = append(parts, "-"+string(n))
	}
	for _, n := range d.ChangedNodes {
		parts = append(parts, "~"+string(n))
	}
	for _, e := range d.AddedEdges {
		parts = append(parts, "+"+e.String())
	}
	for _, e := range d.RemovedEdges {
		parts = append(parts, "-"+e.String())
	}
	if len(parts) == 0 {
		return "(identical)"
	}
	return strings.Join(parts, " ")
}

// DiffFlows compares base with next by node ID.
func DiffFlows(base, next *Graph) Diff {
	var d Diff
	baseIDs := map[NodeID]bool{}
	for _, id := range base.NodeIDs() {
		baseIDs[id] = true
	}
	for _, id := range next.NodeIDs() {
		if !baseIDs[id] {
			d.AddedNodes = append(d.AddedNodes, id)
		} else if base.Node(id).canonical() != next.Node(id).canonical() {
			d.ChangedNodes = append(d.ChangedNodes, id)
		}
	}
	nextIDs := map[NodeID]bool{}
	for _, id := range next.NodeIDs() {
		nextIDs[id] = true
	}
	for _, id := range base.NodeIDs() {
		if !nextIDs[id] {
			d.RemovedNodes = append(d.RemovedNodes, id)
		}
	}
	baseEdges := map[Edge]bool{}
	for _, e := range base.Edges() {
		baseEdges[e] = true
	}
	for _, e := range next.Edges() {
		if !baseEdges[e] {
			d.AddedEdges = append(d.AddedEdges, e)
		}
	}
	nextEdges := map[Edge]bool{}
	for _, e := range next.Edges() {
		nextEdges[e] = true
	}
	for _, e := range base.Edges() {
		if !nextEdges[e] {
			d.RemovedEdges = append(d.RemovedEdges, e)
		}
	}
	sort.Slice(d.AddedNodes, func(i, j int) bool { return d.AddedNodes[i] < d.AddedNodes[j] })
	sort.Slice(d.RemovedNodes, func(i, j int) bool { return d.RemovedNodes[i] < d.RemovedNodes[j] })
	sort.Slice(d.ChangedNodes, func(i, j int) bool { return d.ChangedNodes[i] < d.ChangedNodes[j] })
	return d
}
