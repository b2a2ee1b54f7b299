package main

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"poiesis"
	"poiesis/internal/etl"
	"poiesis/internal/fcp"
)

// The benchmark times each layer from outside, through the public API the
// layer already exposes: decorators handed to the program where it accepts
// a dependency (a session backend, a pattern registry) and a wrapper around
// the handler it mounts. Each decorator records only while on is set, so a
// traced run can measure an untraced stretch with the same wiring and
// report the difference as the tracing overhead.

// timedBackend decorates a session backend (ServerConfig.Backend).
type timedBackend struct {
	poiesis.SessionBackend
	spans *recorder
	on    *atomic.Bool
}

func (b timedBackend) Put(rec *poiesis.SessionRecord) error {
	if !b.on.Load() {
		return b.SessionBackend.Put(rec)
	}
	start := time.Now()
	err := b.SessionBackend.Put(rec)
	end := time.Now()
	// The record's encoded size costs a second encoding, so it is measured
	// in traced runs only and outside the timed put.
	size, _ := json.Marshal(rec)
	b.spans.add(span{Name: "backend.put", Start: b.spans.at(start), End: b.spans.at(end), Bytes: int64(len(size))})
	return err
}

// List is timed whenever the decorator is installed: the server lists
// only while it is constructed, which is set-up, not the traced window.
func (b timedBackend) List() ([]*poiesis.SessionRecord, error) {
	start := time.Now()
	recs, err := b.SessionBackend.List()
	b.spans.timed("backend.list", 0, start)
	return recs, err
}

// timedPattern decorates one flow component pattern so every application
// the planner makes is a span under the exploration that made it.
type timedPattern struct {
	fcp.Pattern
	spans  *recorder
	on     *atomic.Bool
	parent *atomic.Int64
}

func (p timedPattern) Apply(g *etl.Graph, pt fcp.Point) (fcp.Application, error) {
	if !p.on.Load() {
		return p.Pattern.Apply(g, pt)
	}
	start := time.Now()
	app, err := p.Pattern.Apply(g, pt)
	p.spans.timed("fcp.apply", p.parent.Load(), start)
	return app, err
}

// timedRegistry returns a registry holding reg's patterns, timed.
func timedRegistry(reg *fcp.Registry, spans *recorder, on *atomic.Bool, parent *atomic.Int64) *fcp.Registry {
	out := fcp.NewRegistry()
	for _, name := range reg.Names() {
		p, _ := reg.Get(name)
		out.MustRegister(timedPattern{Pattern: p, spans: spans, on: on, parent: parent})
	}
	return out
}

// handlerTap wraps one replica's http.Handler and records every request it
// serves, keyed by the client's request ID.
type handlerTap struct {
	next  http.Handler
	node  string
	spans *recorder
	on    *atomic.Bool
}

func (h handlerTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	cw := &countingWriter{ResponseWriter: w}
	start := time.Now()
	h.next.ServeHTTP(cw, r)
	h.spans.add(span{Name: "handler", Node: h.node, RID: r.Header.Get("X-Poiesis-Request-ID"),
		Class: routeClass(r.Method, r.URL.Path), Start: h.spans.at(start), End: h.spans.at(time.Now()), Bytes: cw.n})
}

// routeClass maps a request to its op class.
func routeClass(method, path string) string {
	switch {
	case strings.HasPrefix(path, "/v1/cache/"):
		if method == http.MethodPut {
			return "cache_put"
		}
		return "cache_get"
	case method == http.MethodGet:
		return classRead
	case strings.HasSuffix(path, "/plan"):
		return classPlan
	default:
		return classWrite
	}
}

// countingWriter counts response bytes and keeps SSE flushing working.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += int64(n)
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (c *countingWriter) Unwrap() http.ResponseWriter { return c.ResponseWriter }
