package mpc

import (
	"strings"
	"testing"
)

func TestTraceCollectsPerRound(t *testing.T) {
	c := New(Config{Machines: 3, CapWords: 1000})
	c.EnableTrace()
	if err := c.Distribute([]Record{rec("a", 1), rec("b", 2), rec("c", 3)}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		err := c.Round(func(m int, local []Record, emit Emit) []Record {
			for _, r := range local {
				emit((m+1)%3, r)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	tr := c.Trace()
	if len(tr) != 3 {
		t.Fatalf("trace has %d rounds, want 3", len(tr))
	}
	for i, s := range tr {
		if s.Index != i {
			t.Errorf("round %d has index %d", i, s.Index)
		}
		if s.SentWords <= 0 || s.MaxSent <= 0 || s.MaxReceived <= 0 || s.MaxResidency <= 0 {
			t.Errorf("round %d stats incomplete: %+v", i, s)
		}
		if s.MaxSent > s.SentWords {
			t.Errorf("round %d: MaxSent %d > total %d", i, s.MaxSent, s.SentWords)
		}
	}
	out := FormatTrace(tr)
	if !strings.Contains(out, "round") || len(strings.Split(strings.TrimSpace(out), "\n")) != 4 {
		t.Errorf("FormatTrace output wrong:\n%s", out)
	}
	if FormatTrace(nil) != "(no trace)" {
		t.Error("empty trace rendering wrong")
	}
}

func TestTraceOffByDefault(t *testing.T) {
	c := New(Config{Machines: 2, CapWords: 100})
	_ = c.Round(func(m int, local []Record, emit Emit) []Record { return local })
	if c.Trace() != nil {
		t.Error("trace collected without EnableTrace")
	}
}

// Cumulative sent words in the trace must equal Metrics.CommWords.
func TestTraceConsistentWithMetrics(t *testing.T) {
	c := New(Config{Machines: 4, CapWords: 4096})
	c.EnableTrace()
	var recs []Record
	for i := 0; i < 40; i++ {
		recs = append(recs, rec("k", float64(i)))
	}
	if err := c.Distribute(recs); err != nil {
		t.Fatal(err)
	}
	if err := rotateRound(c); err != nil {
		t.Fatal(err)
	}
	if err := c.Broadcast(0, []Record{rec("blob", 1)}); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range c.Trace() {
		total += s.SentWords
	}
	if total != c.Metrics().CommWords {
		t.Errorf("trace total %d != CommWords %d", total, c.Metrics().CommWords)
	}
	if len(c.Trace()) != c.Metrics().Rounds {
		t.Errorf("trace rounds %d != metrics rounds %d", len(c.Trace()), c.Metrics().Rounds)
	}
}
