package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// trainArgs pins the model every workload serves. It keeps the fast
// profile's network (32 filters, so per-cut inference costs what the fast
// model costs) but trains on 60 maps per circuit for 8 epochs, which reaches
// the fast profile's keep/drop accuracy (81%) in a quarter of its time, so
// set-up can be repeated within a run. The model is byte-identical on every
// run.
var trainArgs = []string{"-profile", "fast", "-maps", "60", "-epochs", "8", "-seed", "1", "-q"}

// modelName is the registry name the harness preloads the model under.
const modelName = "m"

// buildBinaries compiles slap-serve and slap-train from the repository at
// root into dir. The build is not timed.
func buildBinaries(ctx context.Context, root, dir string) error {
	for _, p := range []string{"go.mod", "cmd/slap-serve", "cmd/slap-train"} {
		if _, err := os.Stat(filepath.Join(root, p)); err != nil {
			return fmt.Errorf("%s is not the slap repository: %w", root, err)
		}
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", dir+string(filepath.Separator), "./cmd/slap-serve", "./cmd/slap-train")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building slap-serve and slap-train: %w\n%s", err, out)
	}
	return nil
}

// server is one running slap-serve process.
type server struct {
	cmd    *exec.Cmd
	base   string
	log    string
	exited chan struct{}
	err    error // process exit status, valid once exited is closed
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// setUp is the measured set-up of one workload: train the pinned model,
// start slap-serve with it and wait until /healthz answers 200. It returns
// the running server and the model bytes, so repeated set-ups can check the
// model is reproducible.
func setUp(ctx context.Context, binDir, work string, flags []string) (*server, []byte, error) {
	model := filepath.Join(work, "model.gob")
	train := exec.CommandContext(ctx, filepath.Join(binDir, "slap-train"), append(append([]string(nil), trainArgs...), "-o", model)...)
	if out, err := train.CombinedOutput(); err != nil {
		return nil, nil, fmt.Errorf("slap-train: %w\n%s", err, out)
	}
	mb, err := os.ReadFile(model)
	if err != nil {
		return nil, nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, nil, err
	}
	logPath := filepath.Join(work, "serve.log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	args := append([]string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-model", modelName + "=" + model,
		"-jobs-dir", filepath.Join(work, "jobs"),
	}, flags...)
	cmd := exec.Command(filepath.Join(binDir, "slap-serve"), args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive a harness that is killed outright.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, nil, fmt.Errorf("starting slap-serve: %w", err)
	}
	s := &server{cmd: cmd, base: fmt.Sprintf("http://127.0.0.1:%d", port), log: logPath, exited: make(chan struct{})}
	go func() {
		s.err = cmd.Wait()
		close(s.exited)
	}()
	if err := s.waitHealthy(ctx); err != nil {
		s.stop()
		return nil, nil, err
	}
	return s, mb, nil
}

// waitHealthy polls /healthz every few milliseconds until it answers 200.
func (s *server) waitHealthy(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	hc := &http.Client{Timeout: time.Second}
	for {
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-s.exited:
			return fmt.Errorf("slap-serve exited during start-up (%v):\n%s", s.err, s.logTail())
		case <-ctx.Done():
			return fmt.Errorf("slap-serve not healthy: %w\n%s", ctx.Err(), s.logTail())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stop drains the server with SIGTERM, kills it if draining stalls, and
// waits for the process to exit.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

func (s *server) logTail() string {
	b, _ := os.ReadFile(s.log)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// snapshot is the server state the harness reads from outside: the Go
// runtime's memstats (expvar), the Prometheus counters, and the process's
// CPU time and peak RSS from /proc.
type snapshot struct {
	totalAlloc, mallocs, numGC, pauseNs float64
	cpuTicks                            float64
	hwmKB                               float64
	prom                                map[string]float64
}

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

func (s *server) snapshot(ctx context.Context) (snapshot, error) {
	var snap snapshot
	var vars struct {
		Memstats struct {
			TotalAlloc   float64
			Mallocs      float64
			NumGC        float64
			PauseTotalNs float64
		} `json:"memstats"`
	}
	body, err := httpGet(ctx, s.base+"/debug/vars")
	if err != nil {
		return snap, err
	}
	if err := json.Unmarshal(body, &vars); err != nil {
		return snap, fmt.Errorf("decoding /debug/vars: %w", err)
	}
	ms := vars.Memstats
	snap.totalAlloc, snap.mallocs, snap.numGC, snap.pauseNs = ms.TotalAlloc, ms.Mallocs, ms.NumGC, ms.PauseTotalNs
	if body, err = httpGet(ctx, s.base+"/metrics"); err != nil {
		return snap, err
	}
	snap.prom = parseProm(body)

	pid := s.cmd.Process.Pid
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return snap, err
	}
	// Fields after the parenthesised command name: state is field 3, utime
	// and stime are fields 14 and 15.
	f := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
	if len(f) < 13 {
		return snap, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return snap, fmt.Errorf("parsing /proc/%d/stat: %w", pid, err)
	}
	snap.cpuTicks = ut + st
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return snap, err
	}
	sc := bufio.NewScanner(bytes.NewReader(status))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			snap.hwmKB, _ = strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		}
	}
	if snap.hwmKB == 0 {
		return snap, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
	}
	return snap, nil
}

// parseProm reads Prometheus text exposition into series -> value, keyed by
// the series name with its label set, e.g. `slap_mapcache_hits` or
// `slap_infer_flushes_total{reason="deadline"}`.
func parseProm(b []byte) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

func httpGet(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}
