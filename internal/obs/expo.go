package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered family in the Prometheus text
// exposition format (version 0.0.4). Families are sorted by name and
// children by label values, so output is deterministic for a given state —
// tests can diff it and scrapes are stable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.sortedFamilies() {
		f.mu.RLock()
		children := append([]*child(nil), f.order...)
		plain := f.plain
		f.mu.RUnlock()
		if len(children) == 0 {
			continue
		}
		sort.Slice(children, func(i, j int) bool {
			return labelKey(children[i].values) < labelKey(children[j].values)
		})
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		for _, ch := range children {
			base := labelString(f.labels, ch.values, "")
			switch f.typ {
			case typeCounter:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, base, ch.c.Value())
			case typeGauge:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, base, ch.g.Value())
			case typeHistogram:
				h := ch.h
				var cum int64
				for i, bound := range h.bounds {
					cum += h.counts[i].Load()
					le := labelString(f.labels, ch.values, formatFloat(bound))
					fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name, le, cum)
				}
				cum += h.counts[len(h.bounds)].Load()
				fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name, labelString(f.labels, ch.values, "+Inf"), cum)
				sum := h.Sum().Seconds()
				if plain {
					sum = float64(h.sum.Load())
				}
				fmt.Fprintf(bw, "%s_sum%s %s\n", f.name, base, formatFloat(sum))
				fmt.Fprintf(bw, "%s_count%s %d\n", f.name, base, h.Count())
				// Exemplar comments tie buckets to the slowest trace seen
				// since the previous scrape. Comment lines are ignored by
				// ParseText (only # TYPE is structural), so the exposition
				// stays parseable by strict consumers.
				for _, ex := range h.exemplars(true) {
					fmt.Fprintf(bw, "# exemplar %s_bucket%s trace_id=%s value=%s\n",
						f.name, labelString(f.labels, ch.values, ex.Bucket), ex.TraceID, formatFloat(ex.Seconds))
				}
			}
		}
	}
	return bw.Flush()
}

func labelKey(values []string) string { return strings.Join(values, "\x00") }

// labelString renders {k="v",...}; le is the extra histogram bucket label
// ("" for none). Returns "" when there are no labels at all.
func labelString(names, values []string, le string) string {
	if len(names) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if le != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(le)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, c := range s {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, "\\", `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// Sample is one parsed exposition line.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Key returns the sample identity as name{k="v",...} with labels sorted,
// convenient for map lookups in tests.
func (s Sample) Key() string {
	if len(s.Labels) == 0 {
		return s.Name
	}
	keys := make([]string, 0, len(s.Labels))
	for k := range s.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(s.Name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, s.Labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// ParseText parses Prometheus text exposition and returns every sample. It
// is strict about what the service itself emits: every sample must belong
// to a family announced by a preceding # TYPE line (histogram samples via
// their _bucket/_sum/_count suffixes), label syntax must be well-formed,
// and values must parse as floats. Used by the exposition round-trip tests
// and the CI scrape smoke check.
func ParseText(r io.Reader) ([]Sample, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	types := make(map[string]string)
	var samples []Sample
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				name, typ := fields[2], strings.TrimSpace(fields[3])
				switch typ {
				case typeCounter, typeGauge, typeHistogram, "summary", "untyped":
					types[name] = typ
				default:
					return nil, fmt.Errorf("line %d: unknown TYPE %q", lineNo, typ)
				}
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if familyOf(s.Name, types) == "" {
			return nil, fmt.Errorf("line %d: sample %s has no preceding # TYPE", lineNo, s.Name)
		}
		samples = append(samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return samples, nil
}

// familyOf resolves a sample name to its announced family, accounting for
// histogram/summary suffixes.
func familyOf(name string, types map[string]string) string {
	if _, ok := types[name]; ok {
		return name
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name {
			if t, ok := types[base]; ok && (t == typeHistogram || t == "summary") {
				return base
			}
		}
	}
	return ""
}

func parseSample(line string) (Sample, error) {
	s := Sample{}
	rest := line
	// Metric name runs up to '{' or whitespace.
	end := strings.IndexAny(rest, "{ \t")
	if end < 0 {
		return s, fmt.Errorf("no value in %q", line)
	}
	s.Name = rest[:end]
	if !validMetricName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest = rest[end:]
	if rest[0] == '{' {
		// The closing brace must be found outside quoted values: label
		// values legitimately contain '}' (mux route patterns like
		// "/v1/sessions/{id}/plan").
		close := closingBrace(rest)
		if close < 0 {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		labels, err := parseLabels(rest[1:close])
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = rest[close+1:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 { // value [timestamp]
		return s, fmt.Errorf("malformed sample %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %w", fields[0], err)
	}
	s.Value = v
	return s, nil
}

// closingBrace returns the index of the '}' that closes the label set
// opened at s[0], skipping braces inside quoted values (and their escapes);
// -1 when the set never closes.
func closingBrace(s string) int {
	inQuote := false
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if inQuote {
				i++ // skip the escaped character
			}
		case '"':
			inQuote = !inQuote
		case '}':
			if !inQuote {
				return i
			}
		}
	}
	return -1
}

func parseLabels(body string) (map[string]string, error) {
	labels := make(map[string]string)
	for body != "" {
		eq := strings.IndexByte(body, '=')
		if eq < 0 {
			return nil, fmt.Errorf("malformed label in %q", body)
		}
		name := strings.TrimSpace(body[:eq])
		if !validMetricName(name) {
			return nil, fmt.Errorf("invalid label name %q", name)
		}
		body = body[eq+1:]
		if body == "" || body[0] != '"' {
			return nil, fmt.Errorf("label %s: value not quoted", name)
		}
		body = body[1:]
		var b strings.Builder
		for {
			if body == "" {
				return nil, fmt.Errorf("label %s: unterminated value", name)
			}
			c := body[0]
			body = body[1:]
			if c == '"' {
				break
			}
			if c == '\\' {
				if body == "" {
					return nil, fmt.Errorf("label %s: dangling escape", name)
				}
				switch body[0] {
				case '\\':
					b.WriteByte('\\')
				case '"':
					b.WriteByte('"')
				case 'n':
					b.WriteByte('\n')
				default:
					return nil, fmt.Errorf("label %s: bad escape \\%c", name, body[0])
				}
				body = body[1:]
				continue
			}
			b.WriteByte(c)
		}
		labels[name] = b.String()
		body = strings.TrimPrefix(strings.TrimSpace(body), ",")
		body = strings.TrimSpace(body)
	}
	return labels, nil
}
