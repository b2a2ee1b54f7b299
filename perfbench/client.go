package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"poiesis/internal/core"
)

// Op classes of the served workloads.
const (
	classRead  = "read"  // GET session, skyline, result
	classPlan  = "plan"  // POST plan, SSE included
	classWrite = "write" // create, select, delete
)

// client issues the workloads' HTTP requests over at most conns
// connections per replica. When spans is non-nil every request carries a
// fresh X-Poiesis-Request-ID and is recorded as a client span, so handler
// spans recorded on the replicas can be matched to it.
type client struct {
	hc    *http.Client
	spans *recorder
	ridN  atomic.Int64
	ridPx string
}

func newClient(conns int, spans *recorder) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
		spans: spans,
		ridPx: strconv.FormatInt(time.Now().UnixNano()%1e9, 36),
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one completed request.
type reply struct {
	status int
	body   []byte
	// sent is when the request was handed to the transport.
	sent time.Time
	done time.Time
}

// do sends one request and reads the whole response.
func (c *client) do(method, url string, body []byte, class string) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rid := ""
	if c.spans != nil {
		rid = fmt.Sprintf("pb-%s-%d", c.ridPx, c.ridN.Add(1))
		req.Header.Set("X-Poiesis-Request-ID", rid)
	}
	r := reply{sent: time.Now()}
	resp, err := c.hc.Do(req)
	if err != nil {
		return r, err
	}
	r.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.done = time.Now()
	r.status = resp.StatusCode
	if c.spans != nil {
		c.spans.add(span{Name: "client", RID: rid, Class: class,
			Start: c.spans.at(r.sent), End: c.spans.at(r.done), Bytes: int64(len(r.body))})
	}
	return r, err
}

func expect(r reply, err error, status int) error {
	if err != nil {
		return err
	}
	if r.status != status {
		return fmt.Errorf("status %d, want %d: %.200s", r.status, status, r.body)
	}
	return nil
}

// Wire shapes the benchmark reads back. Only the fields it checks.

type skyEntry struct {
	Label  string             `json:"label"`
	Scores map[string]float64 `json:"scores"`
}

type resultBody struct {
	Cached       bool       `json:"cached"`
	Dims         []string   `json:"dims"`
	Alternatives int        `json:"alternatives"`
	Skyline      []skyEntry `json:"skyline"`
}

type sessionBody struct {
	ID         string `json:"id"`
	HasResult  bool   `json:"hasResult"`
	Iterations int    `json:"iterations"`
}

type selectBody struct {
	Selection struct {
		Iteration int    `json:"iteration"`
		Label     string `json:"label"`
	} `json:"selection"`
}

type statsBody struct {
	CacheHits   int64 `json:"cacheHits"`
	CacheMisses int64 `json:"cacheMisses"`
	CacheBytes  int64 `json:"cacheBytes"`
}

// skylineDigest is the output identity the benchmark checks: every
// frontier member's label and its scores on the result's dimensions, in
// frontier order. Scores travel as shortest round-trip JSON numbers, so a
// served result and an in-process one digest identically.
func skylineDigest(dims []string, sky []skyEntry) string {
	h := sha256.New()
	for _, e := range sky {
		h.Write([]byte(e.Label))
		for _, d := range dims {
			h.Write([]byte{0})
			h.Write([]byte(strconv.FormatFloat(e.Scores[d], 'g', -1, 64)))
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// resultDigest digests an in-process planning result the same way.
func resultDigest(res *core.Result) string {
	dims := make([]string, len(res.Dims))
	for i, d := range res.Dims {
		dims[i] = string(d)
	}
	sky := make([]skyEntry, 0, len(res.SkylineIdx))
	for _, a := range res.Skyline() {
		e := skyEntry{Label: a.Label(), Scores: map[string]float64{}}
		for _, d := range res.Dims {
			e.Scores[string(d)] = a.Report.Score(d)
		}
		sky = append(sky, e)
	}
	return skylineDigest(dims, sky)
}

// decodeResult parses a plan or result response; for an SSE plan it reads
// the terminal "result" event and fails on an "error" event.
func decodeResult(body []byte, sse bool) (resultBody, error) {
	var out resultBody
	if sse {
		var data []byte
		for _, ev := range strings.Split(string(body), "\n\n") {
			name, payload := "", ""
			for _, line := range strings.Split(ev, "\n") {
				if v, ok := strings.CutPrefix(line, "event: "); ok {
					name = v
				} else if v, ok := strings.CutPrefix(line, "data: "); ok {
					payload = v
				}
			}
			switch name {
			case "error":
				return out, fmt.Errorf("sse error event: %s", payload)
			case "result":
				data = []byte(payload)
			}
		}
		if data == nil {
			return out, fmt.Errorf("sse stream without a result event")
		}
		body = data
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return out, fmt.Errorf("decoding result: %w", err)
	}
	if len(out.Skyline) == 0 {
		return out, fmt.Errorf("result with an empty skyline")
	}
	return out, nil
}

func (r resultBody) digest() string { return skylineDigest(r.Dims, r.Skyline) }
