package gate

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mpctree/internal/core"
	"mpctree/internal/mpcnet"
	"mpctree/internal/obs"
	"mpctree/internal/serve"
	"mpctree/internal/treestore"
	"mpctree/internal/workload"
)

// benchGate stands up one replica and a started gate for hot-path
// benchmarks. The gate mux is exercised in-process (no client socket on
// the gate side); forwards still cross real HTTP to the replica.
func benchGate(b *testing.B, tracer, replicaTracer *obs.Tracer, cacheSize int) *http.ServeMux {
	b.Helper()
	st, err := treestore.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	pts := workload.UniformLattice(21, 256, 4, 1<<10)
	tree, _, err := core.Embed(pts, core.Options{Seed: 21})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := st.Save("t-0", tree); err != nil {
		b.Fatal(err)
	}
	reg := serve.NewRegistry(nil)
	if err := reg.LoadWith("t-0", serve.StoreLoader(st, "t-0")); err != nil {
		b.Fatal(err)
	}
	rmux := http.NewServeMux()
	serve.NewServer(reg, serve.Options{Tracer: replicaTracer}).RegisterMux(rmux)
	replica := httptest.NewServer(rmux)
	b.Cleanup(replica.Close)

	g, err := New(Options{
		Backends:       []string{replica.URL},
		HealthInterval: time.Hour, // one priming poll; no ticks mid-benchmark
		Retry:          mpcnet.RetryPolicy{Sleep: func(time.Duration) {}},
		Tracer:         tracer,
		CacheSize:      cacheSize,
	})
	if err != nil {
		b.Fatal(err)
	}
	g.Start()
	b.Cleanup(g.Stop)
	mux := http.NewServeMux()
	g.RegisterMux(mux)
	return mux
}

func benchPost(b *testing.B, mux *http.ServeMux, body []byte) {
	b.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/dist", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("dist: %d %s", rec.Code, rec.Body.String())
	}
}

// BenchmarkGateHotPath measures the gate's two dist hot paths — an
// answer-cache hit (no backend round trip) and a full forward — with
// tracing disabled (the production default: one atomic load), with a
// 0%-sampling tracer installed, and with every request sampled, so the
// tracing-off, unsampled and sampled costs are all visible against the
// untraced baseline. The sampled forward traces both tiers: its replica
// records what the gate samples, like treeserve -trace-sample 0 behind
// treegate -trace-sample 1.
func BenchmarkGateHotPath(b *testing.B) {
	for _, tc := range []struct {
		name          string
		gate, replica float64 // sampling fractions; < 0 = no tracer
	}{
		{"untraced", -1, -1},
		{"tracer_sample0", 0, -1},
		{"tracer_sample1", 1, 0},
	} {
		tracer := func(fraction float64) *obs.Tracer {
			if fraction < 0 {
				return nil
			}
			return obs.NewTracer(fraction, 256)
		}
		b.Run("cache_hit/"+tc.name, func(b *testing.B) {
			mux := benchGate(b, tracer(tc.gate), tracer(tc.replica), 0)
			body := []byte(`{"tree":"t-0","pairs":[[0,1],[2,3]]}`)
			benchPost(b, mux, body) // fill
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchPost(b, mux, body)
			}
		})
		b.Run("forward/"+tc.name, func(b *testing.B) {
			mux := benchGate(b, tracer(tc.gate), tracer(tc.replica), -1) // cache off: every hit forwards
			// Distinct pairs every iteration: always a miss, always a
			// real backend round trip.
			bodies := make([][]byte, 256)
			for i := range bodies {
				bodies[i] = []byte(fmt.Sprintf(`{"tree":"t-0","pairs":[[%d,%d]]}`, i%256, (i*7+1)%256))
			}
			benchPost(b, mux, bodies[0])
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchPost(b, mux, bodies[i%len(bodies)])
			}
		})
	}
}
