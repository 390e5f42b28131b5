// Spawning real worker processes. The worker binary announces its bound
// address by printing "MPCNET LISTEN <addr>" on stdout; SpawnWorkers
// parses that line so workers can bind ephemeral ports (":0") without a
// rendezvous service, as -transport-spawn and the end-to-end tests do.
package mpcnet

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"
)

// WorkerProc is one spawned worker process.
type WorkerProc struct {
	Addr string
	// ObsURL is the worker's debug/metrics endpoint, parsed from the
	// "MPCNET OBS <url>" line a worker prints BEFORE its LISTEN line.
	// Empty when the worker does not self-observe (-obs-listen "") —
	// callers must tolerate that.
	ObsURL string
	Cmd    *exec.Cmd
}

// Kill terminates the worker with SIGKILL and reaps it.
func (p *WorkerProc) Kill() {
	if p.Cmd.Process != nil {
		_ = p.Cmd.Process.Kill()
	}
	_, _ = p.Cmd.Process.Wait()
}

// announceTimeout bounds the wait for a worker's LISTEN line.
const announceTimeout = 10 * time.Second

// SpawnWorkers launches n worker processes from the given binary, each
// listening on an ephemeral localhost port with its stderr (death logs)
// passed through to this process's, and returns them with their
// announced addresses. On any failure every already-spawned worker is
// killed before returning.
func SpawnWorkers(bin string, n int) ([]*WorkerProc, error) {
	procs := make([]*WorkerProc, 0, n)
	fail := func(err error) ([]*WorkerProc, error) {
		for _, p := range procs {
			p.Kill()
		}
		return nil, err
	}
	for i := 0; i < n; i++ {
		cmd := exec.Command(bin, "-listen", "127.0.0.1:0")
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return fail(err)
		}
		if err := cmd.Start(); err != nil {
			return fail(fmt.Errorf("spawn worker %d: %w", i, err))
		}
		p := &WorkerProc{Cmd: cmd}
		procs = append(procs, p)

		// The worker announces its obs endpoint (optional) and then its
		// record-plane address; the scan records the former and breaks on
		// the latter.
		type announce struct{ addr, obsURL string }
		addrCh := make(chan announce, 1)
		go func() {
			var obsURL string
			sc := bufio.NewScanner(stdout)
			for sc.Scan() {
				line := sc.Text()
				if rest, ok := strings.CutPrefix(line, "MPCNET OBS "); ok {
					obsURL = strings.TrimSpace(rest)
					continue
				}
				if rest, ok := strings.CutPrefix(line, "MPCNET LISTEN "); ok {
					addrCh <- announce{addr: strings.TrimSpace(rest), obsURL: obsURL}
					break
				}
			}
			close(addrCh)
			// Drain any further stdout so the worker never blocks on a
			// full pipe.
			for sc.Scan() {
			}
		}()
		select {
		case a, ok := <-addrCh:
			if !ok || a.addr == "" {
				return fail(fmt.Errorf("worker %d exited before announcing its address", i))
			}
			p.Addr = a.addr
			p.ObsURL = a.obsURL
		case <-time.After(announceTimeout):
			return fail(fmt.Errorf("worker %d did not announce an address within %v", i, announceTimeout))
		}
	}
	return procs, nil
}

// Addrs extracts the announced addresses of a fleet.
func Addrs(procs []*WorkerProc) []string {
	addrs := make([]string, len(procs))
	for i, p := range procs {
		addrs[i] = p.Addr
	}
	return addrs
}

// ObsURLs extracts the announced debug endpoints of a fleet, index-
// aligned with Addrs. Entries are empty for workers that announced none.
func ObsURLs(procs []*WorkerProc) []string {
	urls := make([]string, len(procs))
	for i, p := range procs {
		urls[i] = p.ObsURL
	}
	return urls
}

// KillAll terminates a fleet, tolerating already-dead members.
func KillAll(procs []*WorkerProc) {
	var wg sync.WaitGroup
	for _, p := range procs {
		wg.Add(1)
		go func(p *WorkerProc) {
			defer wg.Done()
			p.Kill()
		}(p)
	}
	wg.Wait()
}
