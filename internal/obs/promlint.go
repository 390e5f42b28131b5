// A strict validator for the Prometheus text exposition format. The
// exporter tests assert that WritePrometheus output always validates,
// and the end-to-end tests that every live /metrics scrape does too.
package obs

import (
	"bufio"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

var labelValueEscaper = strings.NewReplacer(`\\`, "", `\"`, "", `\n`, "")

// ValidatePrometheus checks text against the exposition-format grammar:
// HELP/TYPE comment syntax, metric and label name charsets, quoted label
// values, parsable sample values, samples grouped by family, and TYPE
// declared before the family's first sample. It returns the parsed series
// names (sample names, with histogram suffixes stripped to the family
// name) so callers can assert required series are present.
func ValidatePrometheus(text string) ([]string, error) {
	typeOf := map[string]string{}
	seenFamily := map[string]bool{}
	var families []string
	lastFamily := ""

	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				// Other comments are legal and ignored.
				continue
			}
			name := fields[2]
			if !metricNameRE.MatchString(name) {
				return nil, fmt.Errorf("line %d: bad metric name %q in %s", lineNo, name, fields[1])
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					return nil, fmt.Errorf("line %d: TYPE needs a type", lineNo)
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("line %d: unknown TYPE %q", lineNo, fields[3])
				}
				if _, dup := typeOf[name]; dup {
					return nil, fmt.Errorf("line %d: duplicate TYPE for %q", lineNo, name)
				}
				if seenFamily[name] {
					return nil, fmt.Errorf("line %d: TYPE for %q after its samples", lineNo, name)
				}
				typeOf[name] = fields[3]
			}
			continue
		}

		name, rest, err := splitSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		// A histogram sample's family is the name minus its suffix.
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suffix)
			if base != name && typeOf[base] == "histogram" {
				family = base
				break
			}
		}
		if t, ok := typeOf[family]; ok && t == "histogram" && family == name {
			return nil, fmt.Errorf("line %d: bare sample %q for histogram family", lineNo, name)
		}
		if !seenFamily[family] {
			seenFamily[family] = true
			families = append(families, family)
			lastFamily = family
		} else if family != lastFamily {
			return nil, fmt.Errorf("line %d: family %q samples not contiguous", lineNo, family)
		}
		// Value (and optional timestamp).
		parts := strings.Fields(rest)
		if len(parts) < 1 || len(parts) > 2 {
			return nil, fmt.Errorf("line %d: want 'value [timestamp]' after name, got %q", lineNo, rest)
		}
		if _, err := parseSampleValue(parts[0]); err != nil {
			return nil, fmt.Errorf("line %d: bad value %q: %v", lineNo, parts[0], err)
		}
		if len(parts) == 2 {
			if _, err := strconv.ParseInt(parts[1], 10, 64); err != nil {
				return nil, fmt.Errorf("line %d: bad timestamp %q", lineNo, parts[1])
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.Strings(families)
	return families, nil
}

// splitSample splits "name{labels} value" into the name and the
// post-labels remainder, validating name and label syntax.
func splitSample(line string) (name, rest string, err error) {
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return "", "", fmt.Errorf("no value on sample line %q", line)
	}
	name = line[:i]
	if !metricNameRE.MatchString(name) {
		return "", "", fmt.Errorf("bad sample name %q", name)
	}
	rest = line[i:]
	if rest[0] != '{' {
		return name, rest, nil
	}
	end := strings.Index(rest, "}")
	if end < 0 {
		return "", "", fmt.Errorf("unterminated label set in %q", line)
	}
	labels := rest[1:end]
	if labels != "" {
		for _, pair := range splitLabels(labels) {
			eq := strings.Index(pair, "=")
			if eq < 0 {
				return "", "", fmt.Errorf("label %q is not key=\"value\"", pair)
			}
			k, v := pair[:eq], pair[eq+1:]
			if !metricNameRE.MatchString(k) {
				return "", "", fmt.Errorf("bad label name %q", k)
			}
			if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
				return "", "", fmt.Errorf("label value %s not quoted", v)
			}
			inner := v[1 : len(v)-1]
			if strings.ContainsAny(labelValueEscaper.Replace(inner), "\"\n") {
				return "", "", fmt.Errorf("unescaped quote/newline in label value %s", v)
			}
		}
	}
	return name, rest[end+1:], nil
}

// splitLabels splits a label body on commas outside quoted values.
func splitLabels(s string) []string {
	var out []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// parseSampleValue accepts floats plus the exposition format's special
// tokens +Inf, -Inf, NaN.
func parseSampleValue(s string) (float64, error) {
	switch s {
	case "+Inf", "-Inf", "Nan", "NaN":
		return 0, nil
	}
	return strconv.ParseFloat(s, 64)
}
