// Package e2e checks the repository's binaries from the outside: each
// test runs them as real processes on loopback, with the flags an
// operator would pass, and reads back what they print, write and serve.
// What it guards is the end-to-end form of the paper's results: the
// Theorem-1 tree built over real mpcworker processes equals the
// simulator's tree byte for byte even when a worker dies mid-run, and
// the tree queries of Corollary 1 are answered by treeserve replicas
// behind treegate while one of them is killed and restarted.
//
// The first test to run builds every binary with the go tool that runs
// the tests, into .e2e_build/plain at the module root, or .e2e_build/race
// when the tests are built with -race (the binaries are then race-built
// too, and any child that reports a data race fails its test). A build
// that is up to date relinks nothing. Under -short it builds nothing and
// every test skips. Addresses are never hard-coded: each process binds
// port 0 and the test reads the address back from the line the process
// prints. Every child is killed and reaped when its test ends, and a
// failing test prints each child's captured output.
package e2e

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"mpctree/internal/obs"
)

// binDir holds the binaries once built; buildErr is why they are not.
var (
	built    sync.Once
	binDir   string
	buildErr error
)

// root is the module root, relative to this package's directory.
const root = "../.."

// targets are the main packages the tests run.
var targets = []string{
	"mpctree/cmd/treembed", "mpctree/cmd/treeserve", "mpctree/cmd/treegate",
	"mpctree/cmd/mpcworker", "mpctree/cmd/mpcbench", "mpctree/cmd/treequery",
	"mpctree/cmd/fjltdemo", "mpctree/examples/...",
}

// build compiles targets into binDir. go test puts the GOROOT/bin of the
// go tool running it first on the test binary's PATH, so "go" here is
// that tool and the binaries match the tests' toolchain and build cache.
//
// The binaries are not inputs of the test binary, so first every source
// directory of the module is read: go test keys its cached result on
// what the tests read (a directory by its files' names, sizes and
// mtimes), so an edited source reruns the tests instead of reporting
// (cached). It logs only the reads made while tests run, not those of a
// TestMain, which is why the first test builds.
func build() error {
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		return err
	})
	if err != nil {
		return err
	}
	gotool, err := exec.LookPath("go")
	if err != nil {
		return err
	}
	args := []string{"build"}
	flavor := "plain"
	if raceBuild {
		args, flavor = append(args, "-race"), "race"
	}
	if binDir, err = filepath.Abs(filepath.Join(root, ".e2e_build", flavor)); err != nil {
		return err
	}
	args = append(append(args, "-o", binDir+string(filepath.Separator)), targets...)
	if out, err := exec.Command(gotool, args...).CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %v\n%s", err, out)
	}
	return nil
}

// scratch skips under -short; otherwise it builds the binaries if no
// test has yet, runs the test in parallel with the others (each binds
// its own ports) and returns the test's working directory, where the
// binaries write their files.
func scratch(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("runs the built binaries; skipped under -short")
	}
	if built.Do(func() { buildErr = build() }); buildErr != nil {
		t.Fatal(buildErr)
	}
	t.Parallel()
	return t.TempDir()
}

// buffer is a byte buffer that exec's output copier writes while the
// test reads it.
type buffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (b *buffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.Write(p)
}

func (b *buffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.String()
}

// proc is one binary running as a child process, its stdout and stderr
// captured whole.
type proc struct {
	name           string
	cmd            *exec.Cmd
	stdout, stderr buffer
	done           chan struct{} // closed once the process is reaped
	err            error         // cmd.Wait's result; read after done
}

// start runs binary name with args in dir. t.Cleanup kills and reaps it,
// also when the test fails, fails the test if the process reported a
// data race (a SIGKILLed race-built child never reaches its exit code
// 66), and then prints its output if the test failed.
func start(t *testing.T, dir, name string, args ...string) *proc {
	t.Helper()
	p := &proc{name: name, done: make(chan struct{})}
	p.cmd = exec.Command(filepath.Join(binDir, name), args...)
	p.cmd.Dir = dir
	p.cmd.Stdout, p.cmd.Stderr = &p.stdout, &p.stderr
	if err := p.cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", name, err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	t.Cleanup(func() {
		_ = p.cmd.Process.Kill()
		<-p.done
		if strings.Contains(p.stderr.String(), "WARNING: DATA RACE") {
			t.Errorf("%s reported a data race", name)
		}
		if t.Failed() {
			t.Logf("%s %s (%v)\n--- stdout:\n%s--- stderr:\n%s", name, strings.Join(args, " "),
				p.err, p.stdout.String(), p.stderr.String())
		}
	})
	return p
}

// run runs binary name to completion and fails the test unless it exits 0.
func run(t *testing.T, dir, name string, args ...string) *proc {
	t.Helper()
	p := start(t, dir, name, args...)
	if code := p.wait(t); code != 0 {
		t.Fatalf("%s %s exited %d", name, strings.Join(args, " "), code)
	}
	return p
}

// wait waits for the process to exit and returns its exit code (-1 when
// a signal ended it).
func (p *proc) wait(t *testing.T) int {
	t.Helper()
	select {
	case <-p.done:
	case <-time.After(2 * time.Minute):
		t.Fatalf("%s still running after 2m", p.name)
	}
	var exit *exec.ExitError
	if p.err != nil && !errors.As(p.err, &exit) {
		t.Fatalf("%s: %v", p.name, p.err)
	}
	return p.cmd.ProcessState.ExitCode()
}

// stop sends SIGTERM, the signal every long-running binary drains on,
// and requires a clean exit.
func (p *proc) stop(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM %s: %v", p.name, err)
	}
	if code := p.wait(t); code != 0 {
		t.Fatalf("%s exited %d after SIGTERM", p.name, code)
	}
}

// kill SIGKILLs the process and reaps it.
func (p *proc) kill(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL %s: %v", p.name, err)
	}
	<-p.done
}

// await waits until out (the process's stdout or stderr) matches re and
// returns the submatches. It fails the test if the process exits first
// or a minute passes.
func (p *proc) await(t *testing.T, out *buffer, re string) []string {
	t.Helper()
	rx := regexp.MustCompile(re)
	deadline := time.Now().Add(time.Minute)
	for {
		exited := false
		select {
		case <-p.done:
			exited = true
		default:
		}
		if m := rx.FindStringSubmatch(out.String()); m != nil {
			return m
		}
		if exited {
			t.Fatalf("%s exited (%v) without printing %q", p.name, p.err, re)
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s printed no %q within a minute", p.name, re)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// served waits for a daemon's JSON log record that announces its
// listener (msg is "serving" for treeserve, "gating" for treegate) and
// returns the base URL.
func (p *proc) served(t *testing.T, msg string) string {
	t.Helper()
	return p.await(t, &p.stderr, `"msg":"`+msg+`","addr":"(http://[^"]+)"`)[1]
}

// mustMatch fails unless text matches every pattern in res.
func mustMatch(t *testing.T, what, text string, res ...string) {
	t.Helper()
	for _, re := range res {
		if !regexp.MustCompile(re).MatchString(text) {
			t.Fatalf("%s does not match %q:\n%s", what, re, text)
		}
	}
}

var client = &http.Client{Timeout: 30 * time.Second}

// call sends one request and returns the status and body.
func call(method, url, body string) (int, []byte, error) {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// status returns the HTTP status one request answers.
func status(t *testing.T, method, url, body string) int {
	t.Helper()
	code, _, err := call(method, url, body)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	return code
}

// get and post fail the test unless the request answers 2xx, and return
// the body.
func get(t *testing.T, url string) []byte {
	t.Helper()
	return ok(t, http.MethodGet, url, "")
}

func post(t *testing.T, url, body string) []byte {
	t.Helper()
	return ok(t, http.MethodPost, url, body)
}

func ok(t *testing.T, method, url, body string) []byte {
	t.Helper()
	code, b, err := call(method, url, body)
	if err != nil {
		t.Fatalf("%s %s %s: %v", method, url, body, err)
	}
	if code/100 != 2 {
		t.Fatalf("%s %s %s: HTTP %d: %s", method, url, body, code, b)
	}
	return b
}

// decode unmarshals a JSON document, printing it when it does not parse.
func decode(t *testing.T, what string, doc []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(doc, v); err != nil {
		t.Fatalf("%s is not valid JSON: %v\n%s", what, err, doc)
	}
}

// poll retries check every 100 ms until it returns nil and fails the test
// with its last error after two minutes, room for a slow run on a
// loaded host. A check that no later scrape can mend (counters only
// grow; a bound once breached stays breached) calls t.Fatal itself.
func poll(t *testing.T, check func() error) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		err := check()
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("gave up after 2m: %v", err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// checkMetrics polls base's /metrics until it passes
// obs.ValidatePrometheus and carries every family in want, then requires
// /debug/vars to be a JSON object.
func checkMetrics(t *testing.T, base string, want ...string) {
	t.Helper()
	poll(t, func() error {
		code, body, err := call(http.MethodGet, base+"/metrics", "")
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("/metrics: HTTP %d, %v", code, err)
		}
		families, err := obs.ValidatePrometheus(string(body))
		if err != nil {
			return fmt.Errorf("/metrics is not valid Prometheus text format: %w\n%s", err, body)
		}
		have := make(map[string]bool, len(families))
		for _, f := range families {
			have[f] = true
		}
		var missing []string
		for _, w := range want {
			if !have[w] {
				missing = append(missing, w)
			}
		}
		if len(missing) > 0 {
			return fmt.Errorf("families missing from /metrics: %s\n%s", strings.Join(missing, ", "), body)
		}
		return nil
	})
	var vars map[string]any
	decode(t, "/debug/vars", get(t, base+"/debug/vars"), &vars)
}

// scrape decodes base's /metrics.json into the registry's own series
// form, and returns the document too so a failed check can print it.
func scrape(base string) ([]obs.Value, []byte, error) {
	code, body, err := call(http.MethodGet, base+"/metrics.json", "")
	if err != nil || code != http.StatusOK {
		return nil, body, fmt.Errorf("/metrics.json: HTTP %d, %v", code, err)
	}
	var doc struct {
		Metrics []obs.Value `json:"metrics"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, body, fmt.Errorf("/metrics.json is not valid JSON: %v\n%s", err, body)
	}
	return doc.Metrics, body, nil
}

// series renders a scraped series with its labels in key order, the form
// a failed check uses to name the series at fault.
func series(v obs.Value) string {
	keys := make([]string, 0, len(v.Labels))
	for k := range v.Labels {
		keys = append(keys, fmt.Sprintf("%s=%q", k, v.Labels[k]))
	}
	sort.Strings(keys)
	return v.Name + "{" + strings.Join(keys, ",") + "}"
}

// checkUp polls until at least min series of family read 1 (worker_up on
// an MPC coordinator, gate_replica_healthy on a treegate).
func checkUp(t *testing.T, base, family string, min int) {
	t.Helper()
	poll(t, func() error {
		values, doc, err := scrape(base)
		if err != nil {
			return err
		}
		up, total := 0, 0
		var down []string
		for _, v := range values {
			if v.Name != family {
				continue
			}
			total++
			if v.Value >= 1 {
				up++
			} else {
				down = append(down, series(v)+" = 0")
			}
		}
		if total == 0 || up < min {
			return fmt.Errorf("%d/%d %s series up, want >= %d; down: %s\n%s", up, total, family, min, strings.Join(down, ", "), doc)
		}
		return nil
	})
}

// timeline is a Chrome trace-event document as obs.WriteChromeTrace
// writes it.
type timeline struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// readTimeline decodes a timeline file; a failed check prints doc.
func readTimeline(t *testing.T, path string) (tl timeline, doc []byte) {
	t.Helper()
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	decode(t, path, doc, &tl)
	return tl, doc
}
