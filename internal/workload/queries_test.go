package workload

import (
	"bytes"
	"encoding/json"
	"testing"
)

// Two streams with the same seed are the same queries, so load runs over
// them agree on everything but timing.
func TestQueriesDeterministicStream(t *testing.T) {
	q1 := Queries(3, 50, 200, 8, 1e6, DefaultQueryMix())
	q2 := Queries(3, 50, 200, 8, 1e6, DefaultQueryMix())
	if len(q1) != len(q2) {
		t.Fatalf("lengths differ: %d vs %d", len(q1), len(q2))
	}
	for i := range q1 {
		a, _ := json.Marshal(q1[i])
		b, _ := json.Marshal(q2[i])
		if !bytes.Equal(a, b) {
			t.Fatalf("query %d differs:\n%s\n%s", i, a, b)
		}
	}
}
