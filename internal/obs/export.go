// Exporters: Prometheus text exposition format and JSON. Both render the
// same Snapshot, so a scrape of /metrics and /metrics.json at the same
// instant reports consistent families.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// formatValue renders a sample value the way Prometheus expects: integers
// without an exponent, everything else via %g, infinities as ±Inf.
func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelString renders a snapshot value's labels in sorted-key order, with
// extra prepended label pairs (used for histogram le labels).
func labelString(labels map[string]string, extra ...string) string {
	var parts []string
	for i := 0; i+1 < len(extra); i += 2 {
		parts = append(parts, fmt.Sprintf("%s=%q", extra[i], extra[i+1]))
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%q", k, labels[k]))
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): one HELP/TYPE header per family, then every
// series of the family, histograms expanded into cumulative _bucket,
// _sum, and _count samples.
func (r *Registry) WritePrometheus(w io.Writer) error {
	lastFamily := ""
	for _, v := range r.Snapshot() {
		if v.Name != lastFamily {
			lastFamily = v.Name
			if v.Help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", v.Name, strings.ReplaceAll(v.Help, "\n", " ")); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", v.Name, v.Kind); err != nil {
				return err
			}
		}
		switch v.Kind {
		case "histogram":
			for _, b := range v.Buckets {
				ls := labelString(v.Labels, "le", formatValue(b.LE))
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", v.Name, ls, b.Cumulative); err != nil {
					return err
				}
			}
			ls := labelString(v.Labels)
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n%s_count%s %d\n", v.Name, ls, formatValue(v.Value), v.Name, ls, v.Count); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "%s%s %s\n", v.Name, labelString(v.Labels), formatValue(v.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteJSON writes the registry snapshot as a JSON document:
// {"metrics": [...]} with one entry per series.
func (r *Registry) WriteJSON(w io.Writer) error {
	snap := r.Snapshot()
	for i := range snap {
		// JSON has no Inf; the implicit +Inf histogram bucket equals Count,
		// so drop it rather than emit an unmarshalable token.
		if n := len(snap[i].Buckets); n > 0 && math.IsInf(snap[i].Buckets[n-1].LE, 1) {
			snap[i].Buckets = snap[i].Buckets[:n-1]
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Metrics []Value `json:"metrics"`
	}{Metrics: snap})
}
