// Package fleet is the aggregation side of TACTIC observability: it
// scrapes a set of nodes' /metrics, /healthz, and /eventz endpoints,
// merges them into one fleet snapshot with network-wide rates and
// alerts, and serves a dashboard (cmd/tacticmon). Its parser also reads
// the live scrape that `make metrics-lint` checks against obs's metric
// catalogue.
//
// The paper's detection story runs on exactly this telemetry: shed
// rates are the brute-force signal, and a measured re-check rate that
// stops tracking FPP(BF_rE) means a saturated or stale edge filter —
// so the poller treats those series as first-class, not just generic
// scrape output.
package fleet

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Sample is one series parsed from a Prometheus 0.0.4 text exposition.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Key renders the canonical series identity: name{k="v",...} with
// label keys sorted (the same shape obs.Registry.Snapshot uses).
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
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(s.Labels[k]))
	}
	b.WriteByte('}')
	return b.String()
}

// Exposition is one parsed scrape: every sample plus the HELP/TYPE
// metadata keyed by family name.
type Exposition struct {
	Samples []Sample
	Help    map[string]string
	Types   map[string]string
}

// ParsePromText parses a Prometheus text-format exposition. Unknown
// comment lines (exemplar annotations and the like) are skipped;
// malformed sample lines are errors.
func ParsePromText(r io.Reader) (*Exposition, error) {
	exp := &Exposition{Help: map[string]string{}, Types: map[string]string{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if name, text, ok := parseMeta(line, "# HELP "); ok {
				exp.Help[name] = text
			} else if name, kind, ok := parseMeta(line, "# TYPE "); ok {
				exp.Types[name] = kind
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		exp.Samples = append(exp.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return exp, nil
}

// parseMeta splits "# HELP name rest" / "# TYPE name rest" lines.
func parseMeta(line, prefix string) (name, rest string, ok bool) {
	if !strings.HasPrefix(line, prefix) {
		return "", "", false
	}
	body := line[len(prefix):]
	if i := strings.IndexByte(body, ' '); i > 0 {
		return body[:i], body[i+1:], true
	}
	return body, "", body != ""
}

// parseSample parses one `name{labels} value [timestamp]` line.
func parseSample(line string) (Sample, error) {
	s := Sample{}
	i := strings.IndexAny(line, "{ ")
	if i <= 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.Name = line[:i]
	rest := line[i:]
	if rest[0] == '{' {
		labels, tail, err := parseLabels(rest)
		if err != nil {
			return s, err
		}
		s.Labels, rest = labels, tail
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("malformed value in %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %w", fields[0], err)
	}
	s.Value = v
	return s, nil
}

// parseLabels consumes a `{k="v",...}` block (v with \" \\ \n escapes)
// and returns the remainder of the line.
func parseLabels(in string) (map[string]string, string, error) {
	labels := map[string]string{}
	i := 1 // past '{'
	for {
		for i < len(in) && (in[i] == ',' || in[i] == ' ') {
			i++
		}
		if i < len(in) && in[i] == '}' {
			return labels, in[i+1:], nil
		}
		eq := strings.IndexByte(in[i:], '=')
		if eq < 0 {
			return nil, "", fmt.Errorf("malformed labels %q", in)
		}
		key := in[i : i+eq]
		i += eq + 1
		if i >= len(in) || in[i] != '"' {
			return nil, "", fmt.Errorf("unquoted label value in %q", in)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(in) {
				return nil, "", fmt.Errorf("unterminated label value in %q", in)
			}
			c := in[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' && i+1 < len(in) {
				i++
				switch in[i] {
				case 'n':
					val.WriteByte('\n')
				case '\\', '"':
					val.WriteByte(in[i])
				default:
					val.WriteByte('\\')
					val.WriteByte(in[i])
				}
				i++
				continue
			}
			val.WriteByte(c)
			i++
		}
		labels[key] = val.String()
	}
}
