package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func get(t *testing.T, url string) (string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d\n%s", url, resp.StatusCode, body)
	}
	return string(body), resp.Header.Get("Content-Type")
}

func TestServeEndpoints(t *testing.T) {
	reg := New()
	reg.Counter("mpc_rounds_total", "rounds").Add(13)
	root := NewSpan("pipeline")
	ph := root.Child("root_paths")
	ph.Add("rounds", 13)
	ph.End()
	root.End()
	tracer := NewTracer(1, 4)
	req := tracer.StartRequest(TraceContext{}, "served")
	tracer.Finish(req)

	srv, err := Serve("127.0.0.1:0", reg, root, tracer.Buffer())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	metrics, ctype := get(t, base+"/metrics")
	if !strings.Contains(ctype, "text/plain") {
		t.Errorf("/metrics content-type = %q", ctype)
	}
	if _, err := ValidatePrometheus(metrics); err != nil {
		t.Fatalf("/metrics does not validate: %v\n%s", err, metrics)
	}
	if !strings.Contains(metrics, "mpc_rounds_total 13") {
		t.Errorf("/metrics missing counter:\n%s", metrics)
	}

	mjson, _ := get(t, base+"/metrics.json")
	var doc struct {
		Metrics []Value `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(mjson), &doc); err != nil || len(doc.Metrics) == 0 {
		t.Fatalf("/metrics.json bad: %v\n%s", err, mjson)
	}

	trace, _ := get(t, base+"/trace")
	if !strings.Contains(trace, "pipeline") || !strings.Contains(trace, "root_paths") {
		t.Errorf("/trace text missing spans:\n%s", trace)
	}
	tjson, ctype := get(t, base+"/trace?format=json")
	if !strings.Contains(ctype, "application/json") {
		t.Errorf("/trace json content-type = %q", ctype)
	}
	var sn SpanSnapshot
	if err := json.Unmarshal([]byte(tjson), &sn); err != nil {
		t.Fatalf("/trace?format=json bad: %v\n%s", err, tjson)
	}
	if sn.SumMetric("rounds") != 13 {
		t.Errorf("trace rounds = %d, want 13", sn.SumMetric("rounds"))
	}

	forests, err := FetchRequestTraces(http.DefaultClient, base)
	if err != nil || len(forests) != 1 || forests[0].Name != "served" || forests[0].SpanID != formatSpanID(req.Context().SpanID) {
		t.Fatalf("/trace/requests read back %+v, %v; want the one finished request", forests, err)
	}

	hz, ctype := get(t, base+"/healthz")
	if !strings.Contains(ctype, "application/json") {
		t.Errorf("/healthz content-type = %q", ctype)
	}
	var hs HealthStatus
	if err := json.Unmarshal([]byte(hz), &hs); err != nil {
		t.Fatalf("/healthz bad JSON: %v\n%s", err, hz)
	}
	if hs.Status != "ok" || hs.GoVersion == "" || hs.Series < 1 || hs.UptimeSeconds < 0 {
		t.Errorf("/healthz = %+v", hs)
	}

	vars, _ := get(t, base+"/debug/vars")
	if !json.Valid([]byte(vars)) {
		t.Errorf("/debug/vars is not valid JSON:\n%s", vars)
	}

	idx, _ := get(t, base+"/debug/pprof/")
	if !strings.Contains(idx, "goroutine") {
		t.Errorf("/debug/pprof/ index missing profiles:\n%.200s", idx)
	}

	home, _ := get(t, base+"/")
	if !strings.Contains(home, "/metrics") || !strings.Contains(home, "/trace/requests") {
		t.Errorf("index page missing endpoint list: %q", home)
	}
}

func TestServeNilRoot(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", New(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()
	if _, err := FetchRequestTraces(http.DefaultClient, base); err == nil {
		t.Error("a server given no trace buffer answers /trace/requests")
	}
	trace, _ := get(t, base+"/trace")
	if !strings.Contains(trace, "no spans") {
		t.Errorf("nil-root /trace = %q", trace)
	}
	tjson, _ := get(t, base+"/trace?format=json")
	if strings.TrimSpace(tjson) != "null" {
		t.Errorf("nil-root JSON trace = %q", tjson)
	}
}

func TestServeBadAddr(t *testing.T) {
	if _, err := Serve("127.0.0.1:99999", New(), nil, nil); err == nil {
		t.Fatal("bad address did not error")
	}
}
