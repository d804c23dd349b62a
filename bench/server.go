package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// drainDefault mirrors `costsense serve -drain`'s default: after
// SIGTERM the child gets this long to drain before it is killed.
const drainDefault = 30 * time.Second

// server is one `costsense serve` child process.
type server struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:<port>
	logPath string
	logFile *os.File
	exited  chan struct{} // closed once Wait has returned
	waitErr error
}

// startServer execs the server on a free loopback port with the
// `serve` defaults (-queue 16 -cache-mb 256, GOMAXPROCS = nproc) plus
// -journal when journal is non-empty, appending its stderr to logPath,
// and returns once /healthz answers 200.
func startServer(ctx context.Context, bin, logPath, journal string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("finding a free port: %w", err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return nil, fmt.Errorf("releasing the probed port: %w", err)
	}
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("opening server log: %w", err)
	}
	args := []string{"serve", "-addr", addr}
	if journal != "" {
		args = append(args, "-journal", journal)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	// If the benchmark itself is killed, the kernel takes the child with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, logPath: logPath, logFile: logFile, exited: make(chan struct{})}
	go func() {
		s.waitErr = cmd.Wait()
		close(s.exited)
	}()
	if err := s.waitHealthy(ctx); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// waitHealthy polls /healthz until the first 200.
func (s *server) waitHealthy(ctx context.Context) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-s.exited:
			return fmt.Errorf("server exited before becoming healthy (%v); see %s", s.waitErr, s.logPath)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not healthy after 20s; see %s", s.logPath)
		}
	}
}

// stop reaps the child: SIGTERM, then SIGKILL once the drain default
// has passed. It reports an error unless the server exited 0 and its
// log ends with "drained cleanly". Safe to call more than once.
func (s *server) stop() error {
	select {
	case <-s.exited:
	default:
		_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if the child is already gone
		select {
		case <-s.exited:
		case <-time.After(drainDefault + 5*time.Second):
			_ = s.cmd.Process.Kill()
			<-s.exited
		}
	}
	s.logFile.Close()
	if s.waitErr != nil {
		return fmt.Errorf("server exit: %w; see %s", s.waitErr, s.logPath)
	}
	log, err := os.ReadFile(s.logPath)
	if err != nil {
		return err
	}
	if !bytes.HasSuffix(bytes.TrimSpace(log), []byte("drained cleanly")) {
		return fmt.Errorf("server log %s does not end with \"drained cleanly\"", s.logPath)
	}
	return nil
}

// cpuMS is the server's user+system CPU time so far, from
// /proc/<pid>/stat. Fields 14 and 15 count from after the
// parenthesised command name, which may itself contain spaces.
func (s *server) cpuMS() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.pid()))
	if err != nil {
		return 0, err
	}
	rest := b[bytes.LastIndexByte(b, ')')+1:]
	f := strings.Fields(string(rest)) // f[0] is field 3 (state)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", s.pid())
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparseable /proc/%d/stat", s.pid())
	}
	return (utime + stime) * 1000 / userHZ, nil
}

// userHZ is the unit of /proc CPU times: USER_HZ, fixed at 100 on
// every Linux ABI.
const userHZ = 100

// rssPeakMiB is the server's peak resident set (VmHWM) so far.
func (s *server) rssPeakMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.pid()))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("unparseable VmHWM %q", v)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.pid())
}
