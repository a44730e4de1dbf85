package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one semiserve process under test.
type server struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:<port>
	log     *os.File
	logPath string
	done    chan error // receives cmd.Wait's result once
	once    sync.Once
}

// startServer launches bin with its default flags on an ephemeral
// loopback port, its access log (stderr) going to logPath, and returns
// once it has printed its listening address. With gctrace the Go runtime
// also logs one line per garbage collection there.
func startServer(ctx context.Context, bin, logPath string, gctrace bool) (*server, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, fmt.Errorf("access log: %w", err)
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Stderr = logf
	if gctrace {
		cmd.Env = append(os.Environ(), "GODEBUG=gctrace=1")
	}
	// The server dies with the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, fmt.Errorf("server stdout: %w", err)
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, log: logf, logPath: logPath, done: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		// The first stdout line names the address; the rest is drained so
		// the server never blocks on a full pipe.
		br := bufio.NewReader(stdout)
		line, _ := br.ReadString('\n')
		addr <- strings.TrimSpace(strings.TrimPrefix(line, "semiserve: listening on "))
		io.Copy(io.Discard, br)
		s.done <- cmd.Wait()
	}()
	select {
	case a := <-addr:
		if a == "" || !strings.HasPrefix(a, "127.0.0.1:") {
			s.stop()
			return nil, fmt.Errorf("semiserve did not report a loopback address (log: %s)", logPath)
		}
		s.base = "http://" + a
		return s, nil
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, errors.New("semiserve did not start within 30s")
	case <-ctx.Done():
		s.stop()
		return nil, ctx.Err()
	}
}

// stop kills the server and waits until it has exited; repeat calls
// are no-ops.
func (s *server) stop() {
	s.once.Do(func() {
		s.cmd.Process.Kill()
		<-s.done
		s.log.Close()
	})
}

// waitHealthy polls GET /healthz until it answers 200.
func (s *server) waitHealthy(ctx context.Context, c *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := c.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("/healthz not ready after 30s: %v", err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// scrape fetches /metrics as parsed samples.
func (s *server) scrape(c *http.Client) (map[string]float64, error) {
	resp, err := c.Get(s.base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	return promSamples(string(raw))
}

// cpuSeconds is the server's user+system CPU so far.
func (s *server) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(s.cmd.Process.Pid) + "/stat")
	if err != nil {
		return 0, fmt.Errorf("server CPU time: %w", err)
	}
	return procCPUSeconds(string(raw))
}

// peakRSS is the server's peak resident set size in bytes.
func (s *server) peakRSS() (int64, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(s.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0, fmt.Errorf("server peak RSS: %w", err)
	}
	return procHWMBytes(string(raw))
}

// gcCycles is the number of garbage collections the server has logged
// (it must run with gctrace).
func (s *server) gcCycles() (int, error) {
	raw, err := os.ReadFile(s.logPath)
	if err != nil {
		return 0, fmt.Errorf("server GC log: %w", err)
	}
	return lastGCCycle(string(raw))
}
