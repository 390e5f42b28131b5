package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
)

// FuzzParseMeasure feeds arbitrary measure strings through the EMD
// body's measure parser. It must never panic, and an accepted measure
// must be a probability vector over the n points: length n, finite,
// non-negative entries summing to 1 within rounding.
func FuzzParseMeasure(f *testing.F) {
	for _, s := range []string{
		"0:1,5:0.5", "3", "0:1, 0:2 ,", "1:0x1p-1074,2:0x1p-1074",
		"0:1e308,1:1e308", "0:-1", "0:NaN", "9:1", "", ",,", "0:", ":1",
		"+2:3", "0:1e-320", "0:inf",
	} {
		f.Add(s, uint8(10))
	}
	f.Fuzz(func(t *testing.T, s string, size uint8) {
		n := int(size%64) + 1
		m, err := ParseMeasure(s, n)
		if err != nil {
			return
		}
		if len(m) != n {
			t.Fatalf("ParseMeasure(%q, %d): %d entries", s, n, len(m))
		}
		var sum float64
		for i, v := range m {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("ParseMeasure(%q, %d): entry %d = %v", s, n, i, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("ParseMeasure(%q, %d): mass sums to %v, want 1", s, n, sum)
		}
	})
}

// FuzzServeBodies posts arbitrary bodies to the four query endpoints of
// an in-process replica. No body may be answered with 500 (a handler
// panic or an unclassified error), every 200 must answer a body that is
// one valid JSON value, and it must decode into the endpoint's response
// type.
func FuzzServeBodies(f *testing.F) {
	tree := buildTree(f, 1, 24)
	path := filepath.Join(f.TempDir(), "t.tree")
	saveTree(f, tree, path)
	reg := NewRegistry(nil)
	if err := reg.Load("t", path); err != nil {
		f.Fatal(err)
	}
	mux := http.NewServeMux()
	NewServer(reg, Options{}).RegisterMux(mux)
	endpoints := []struct {
		path string
		resp func() any
	}{
		{"/v1/dist", func() any { return &DistResponse{} }},
		{"/v1/knn", func() any { return &KNNResponse{} }},
		{"/v1/cut", func() any { return &CutResponse{} }},
		{"/v1/emd", func() any { return &EMDResponse{} }},
	}

	for _, s := range []string{
		`{"tree":"t","pairs":[[0,1],[2,3]]}`,
		`{"tree":"t","point":4,"k":3}`,
		`{"tree":"t","points":[0,1,23],"k":100}`,
		`{"tree":"t","scale":50}`,
		`{"tree":"t","scale":1e308}`,
		`{"tree":"t","mu":"0:1,5:0.5","nu":"9:1.5"}`,
		`{"tree":"t","mu":"0:1e308,1:1e308","nu":"2"}`,
		`{"tree":"t","pairs":[[0,24]]}`,
		`{"tree":"nope","k":1,"point":0}`,
		`{"tree":"t","k":-1,"point":0}`,
		`{"tree":"t","scale":-0}`,
		`{"tree":"t","extra":1}`,
		`{"tree":"t"}{"tree":"t"}`,
		`{"tree":"t","pairs":null}`,
		`[]`, `null`, `{`, ``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, ep := range endpoints {
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, ep.path, bytes.NewReader(body)))
			switch rec.Code {
			case http.StatusInternalServerError:
				t.Fatalf("%s %q: 500 %s", ep.path, body, rec.Body.Bytes())
			case http.StatusOK:
				if !json.Valid(body) {
					t.Fatalf("%s %q: 200 for a body that is not one JSON value", ep.path, body)
				}
				dec := json.NewDecoder(rec.Body)
				dec.DisallowUnknownFields()
				if err := dec.Decode(ep.resp()); err != nil {
					t.Fatalf("%s %q: 200 body %q does not decode: %v", ep.path, body, rec.Body.Bytes(), err)
				}
			}
		}
	})
}
