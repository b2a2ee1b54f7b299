package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer of the program, or
// one request a layer served. Spans live in memory for the whole run and are
// written out when it ends.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the recorder was created.
	Start int64 `json:"start"`
	End   int64 `json:"end"`
	// RID is the X-Poiesis-Request-ID the client set; spans recorded on
	// different replicas for one request share it.
	RID string `json:"rid,omitempty"`
	// Node names the replica a handler span ran on.
	Node string `json:"node,omitempty"`
	// Class is the op class (read, plan, write) or, for intra-cluster
	// cache calls, "cache_get" / "cache_put".
	Class string `json:"class,omitempty"`
	Bytes int64  `json:"bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory. The zero value is not usable; a nil
// *recorder records nothing, which is the untraced path.
type recorder struct {
	base  time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

// newID reserves a span ID, for callers that must name a parent before the
// parent span ends.
func (r *recorder) newID() int64 { return r.next.Add(1) }

func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.base)) }

// add records a finished span; an ID of 0 allocates one.
func (r *recorder) add(s span) int64 {
	if r == nil {
		return 0
	}
	if s.ID == 0 {
		s.ID = r.newID()
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return s.ID
}

// timed records [start, now) under name with the given parent.
func (r *recorder) timed(name string, parent int64, start time.Time) {
	if r == nil {
		return
	}
	r.add(span{Parent: parent, Name: name, Start: r.at(start), End: r.at(time.Now())})
}

// snapshot returns the recorded spans with request-ID parents linked.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	out := append([]span(nil), r.spans...)
	r.mu.Unlock()
	linkByRID(out)
	return out
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// linkByRID gives every parentless span that carries a request ID the
// tightest other span of the same request enclosing it. Handler spans are
// recorded on replicas that cannot know the client's span ID; the shared
// request ID and interval containment reconstruct the tree: client op ⊃
// entry replica handler ⊃ owner replica handler ⊃ intra-cluster cache call.
func linkByRID(spans []span) {
	byRID := map[string][]int{}
	for i, s := range spans {
		if s.RID != "" {
			byRID[s.RID] = append(byRID[s.RID], i)
		}
	}
	for _, idx := range byRID {
		for _, i := range idx {
			if spans[i].Parent != 0 {
				continue
			}
			best := -1
			for _, j := range idx {
				if j == i || !encloses(spans[j], spans[i]) {
					continue
				}
				if best < 0 || tighter(spans[j], spans[best]) {
					best = j
				}
			}
			if best >= 0 {
				spans[i].Parent = spans[best].ID
			}
		}
	}
}

// encloses reports whether a's interval contains b's; equal intervals count
// as enclosing only in ID order, so two identical spans never parent each
// other.
func encloses(a, b span) bool {
	if a.Start > b.Start || a.End < b.End {
		return false
	}
	if a.Start == b.Start && a.End == b.End {
		return a.ID < b.ID
	}
	return true
}

func tighter(a, b span) bool {
	if a.dur() != b.dur() {
		return a.dur() < b.dur()
	}
	return a.ID > b.ID
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that the union of its children covers. Children may overlap
// (planner workers apply patterns concurrently), so they are merged as
// intervals rather than summed.
func selfTimes(spans []span) map[int64]int64 {
	kids := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered measures how much of [start, end) the union of ivs covers.
func covered(start, end int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	c := append([][2]int64(nil), ivs...)
	sort.Slice(c, func(i, j int) bool { return c[i][0] < c[j][0] })
	var total int64
	curS, curE := int64(0), int64(0)
	open := false
	flush := func() {
		if !open {
			return
		}
		s, e := max(curS, start), min(curE, end)
		if e > s {
			total += e - s
		}
	}
	for _, iv := range c {
		if open && iv[0] <= curE {
			curE = max(curE, iv[1])
			continue
		}
		flush()
		curS, curE, open = iv[0], iv[1], true
	}
	flush()
	return total
}
