package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Child-process handling: build kqr-server from the working tree, run
// it on a free loopback port with its output in the run's temp dir,
// and make sure no child outlives the benchmark.

// findRoot locates the repository root: the directory holding
// BENCHMARK.json and cmd/kqr-server, at or one level above the working
// directory (go test runs the package in bench/).
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "kqr-server", "main.go")); err != nil {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("no repository root (BENCHMARK.json beside cmd/kqr-server) at or above %s", wd)
}

// buildServer compiles cmd/kqr-server from the working tree into the
// build directory and returns the binary's path.
func buildServer(root, buildDir string) (string, error) {
	bin := filepath.Join(buildDir, "bin", "kqr-server")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/kqr-server")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/kqr-server: %v\n%s", err, out)
	}
	return bin, nil
}

// children tracks every process the benchmark started so that exit, a
// failed check, a timeout and SIGINT all take the same way out.
type children struct {
	mu    sync.Mutex
	procs map[*child]bool
}

func (c *children) add(s *child) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.procs == nil {
		c.procs = map[*child]bool{}
	}
	c.procs[s] = true
}

func (c *children) remove(s *child) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.procs, s)
}

// killAll stops whatever is still running and waits for it.
func (c *children) killAll() {
	c.mu.Lock()
	procs := make([]*child, 0, len(c.procs))
	for s := range c.procs {
		procs = append(procs, s)
	}
	c.mu.Unlock()
	for _, s := range procs {
		s.stop()
	}
}

// child is one running kqr-server child.
type child struct {
	name    string
	addr    string // host:port
	cmd     *exec.Cmd
	done    chan struct{} // closed when the process has been waited for
	waitErr error
	stdout  string // file paths
	stderr  string
	owner   *children
	spawned time.Time
}

func (s *child) url(path string) string { return "http://" + s.addr + path }

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// spawn starts kqr-server with args on a free port. The server's
// stdout (startup report) and stderr (one log line per request) go to
// files under dir.
func (c *children) spawn(bin, dir, name string, args ...string) (*child, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	s := &child{
		name: name, addr: addr, owner: c, done: make(chan struct{}),
		stdout: filepath.Join(dir, name+".stdout"),
		stderr: filepath.Join(dir, name+".stderr"),
	}
	outF, err := os.Create(s.stdout)
	if err != nil {
		return nil, err
	}
	defer outF.Close()
	errF, err := os.Create(s.stderr)
	if err != nil {
		return nil, err
	}
	defer errF.Close()
	s.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	s.cmd.Dir = dir
	s.cmd.Stdout, s.cmd.Stderr = outF, errF
	s.spawned = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	c.add(s)
	go func() {
		s.waitErr = s.cmd.Wait()
		close(s.done)
	}()
	return s, nil
}

// controlClient carries the benchmark's control-plane calls (readiness,
// metrics, admin); measured traffic uses conn instead.
var controlClient = &http.Client{Timeout: 60 * time.Second}

// waitReady polls /readyz until it answers 200 and returns the time
// from spawn to readiness.
func (s *child) waitReady(timeout time.Duration) (time.Duration, error) {
	deadline := s.spawned.Add(timeout)
	for {
		select {
		case <-s.done:
			return 0, fmt.Errorf("%s exited before becoming ready: %v\n%s", s.name, s.waitErr, tailFile(s.stdout, 2048))
		default:
		}
		resp, err := controlClient.Get(s.url("/readyz"))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(s.spawned), nil
			}
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("%s not ready after %v", s.name, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop asks the server to drain (SIGTERM), kills it if it has not gone
// within five seconds, and waits until it has ended.
func (s *child) stop() {
	select {
	case <-s.done:
	default:
		s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.done:
		case <-time.After(5 * time.Second):
			s.cmd.Process.Kill()
			<-s.done
		}
	}
	s.owner.remove(s)
}

// getJSON fetches path and decodes the body into v.
func (s *child) getJSON(path string, v any) error {
	return s.doJSON(http.MethodGet, path, v)
}

func (s *child) doJSON(method, path string, v any) error {
	req, err := http.NewRequestWithContext(context.Background(), method, s.url(path), nil)
	if err != nil {
		return err
	}
	resp, err := controlClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	return nil
}

// statusMiB reads one kB-valued field of the process' /proc status —
// VmRSS, its resident set, or VmHWM, the peak of it — in MiB.
func (s *child) statusMiB(field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("%s %q: %w", field, rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// rssSampler reads a server's resident set at a fixed interval while
// the measured phases run.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

// sampleRSS starts sampling s every interval; stopSampling ends it.
func (s *child) sampleRSS(interval time.Duration) *rssSampler {
	sm := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(sm.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-sm.stop:
				return
			case <-tick.C:
				if v, err := s.statusMiB("VmRSS"); err == nil {
					sm.samples = append(sm.samples, v)
				}
			}
		}
	}()
	return sm
}

// stopSampling ends the sampler and returns what it read.
func (sm *rssSampler) stopSampling() []float64 {
	close(sm.stop)
	<-sm.done
	return sm.samples
}

// cpuSeconds is the user plus system CPU time the process has used so
// far (0 if /proc cannot be read).
func (s *child) cpuSeconds() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the line, in clock ticks of 1/100 s.
	rest := string(b[bytes.LastIndexByte(b, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0
	}
	utime, _ := strconv.ParseFloat(f[11], 64)
	stime, _ := strconv.ParseFloat(f[12], 64)
	return (utime + stime) / 100
}

// selfCPUSeconds is the user plus system CPU time the benchmark process
// itself has used so far.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// stdoutContains reports whether the server's startup report has a
// line containing want.
func (s *child) stdoutContains(want string) bool {
	b, err := os.ReadFile(s.stdout)
	return err == nil && strings.Contains(string(b), want)
}

func tailFile(path string, n int) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	if len(b) > n {
		b = b[len(b)-n:]
	}
	return string(b)
}

// serverMetrics is the part of /api/metrics the benchmark reads.
type serverMetrics struct {
	CacheBytes int64 `json:"cache_bytes"`
	Endpoints  map[string]struct {
		Requests  int64 `json:"requests"`
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Coalesced int64 `json:"coalesced"`
		Shed      int64 `json:"shed"`
		Errors    int64 `json:"errors"`
	} `json:"endpoints"`
	Disk *struct {
		BlobBytes     int64 `json:"blob_bytes"`
		ResidentBytes int64 `json:"resident_bytes"`
		Hits          int64 `json:"page_hits"`
		Misses        int64 `json:"page_misses"`
		Evictions     int64 `json:"page_evictions"`
		CorruptPages  int64 `json:"corrupt_pages"`
	} `json:"disk"`
	Mend *struct {
		Engaged    int64 `json:"engaged"`
		Mended     int64 `json:"mended"`
		Rejected   int64 `json:"rejected"`
		IndexBytes int64 `json:"index_bytes"`
	} `json:"mend"`
	Replication *struct {
		Leader *struct {
			LogBytes int64 `json:"log_bytes"`
		} `json:"leader"`
	} `json:"replication"`
	CDC *struct {
		Batches        int64 `json:"batches"`
		Duplicates     int64 `json:"duplicates"`
		ThrottleWaitNS int64 `json:"throttle_wait_ns"`
	} `json:"cdc"`
}

func (s *child) metrics() (serverMetrics, error) {
	var m serverMetrics
	err := s.getJSON("/api/metrics", &m)
	return m, err
}
