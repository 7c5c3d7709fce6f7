package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one dynshapd child process.
type server struct {
	cmd     *exec.Cmd
	args    []string
	dataDir string
	base    string
	exited  chan struct{}
	waitErr error
}

// startServer launches dynshapd on a free loopback port with persistence
// in dataDir and waits until /healthz answers.
func startServer(bin, dataDir string, logTo *os.File) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	s := &server{
		args:    []string{"-addr", addr, "-data", dataDir},
		dataDir: dataDir,
		base:    "http://" + addr,
		exited:  make(chan struct{}),
	}
	s.cmd = exec.Command(bin, s.args...)
	s.cmd.Stdout = logTo
	s.cmd.Stderr = logTo
	// If the benchmark dies, the server gets SIGTERM instead of outliving it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting dynshapd: %w", err)
	}
	go func() {
		s.waitErr = s.cmd.Wait()
		close(s.exited)
	}()
	c := newClient(s.base)
	defer c.close()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if c.do("GET", "/healthz", nil, nil) == nil {
			return s, nil
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("dynshapd exited during start-up: %v", s.waitErr)
		case <-time.After(250 * time.Microsecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("dynshapd did not answer /healthz within 30s")
		}
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("finding a free port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// stop sends SIGTERM (graceful drain and snapshot), and kills the process
// if it has not exited within a minute. It returns once the process is gone.
func (s *server) stop() error {
	select {
	case <-s.exited:
		return s.waitErr
	default:
	}
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.cmd.Process.Kill()
	}
	select {
	case <-s.exited:
		return s.waitErr
	case <-time.After(time.Minute):
		s.cmd.Process.Kill()
		<-s.exited
		return errors.New("dynshapd did not drain within a minute; killed")
	}
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MB.
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
		}
		return kb / 1024, nil
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// createBody is the POST /v1/sessions request for a workload.
func createBody(w Workload, seed uint64) []byte {
	b, err := json.Marshal(map[string]any{
		"name": sessionName,
		"synthetic": map[string]any{
			"kind": "iris", "total": w.Train + w.Test,
			"train_frac": float64(w.Train) / float64(w.Train+w.Test),
			"seed":       dataSeed(seed),
		},
		"model":          w.Model,
		"knn_k":          w.K,
		"samples":        w.Samples,
		"update_samples": w.UpdateSamples,
		"seed":           sessionSeed(seed),
		"workers":        updateWorkers,
	})
	if err != nil {
		panic(err)
	}
	return b
}

// setupOnce launches dynshapd in a fresh data directory and creates the
// workload's session, timing launch → create response.
func setupOnce(bin, dataDir string, w Workload, seed uint64, logTo *os.File) (*server, time.Duration, error) {
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, 0, err
	}
	begin := time.Now()
	s, err := startServer(bin, dataDir, logTo)
	if err != nil {
		return nil, 0, err
	}
	c := newClient(s.base)
	defer c.close()
	if err := c.do("POST", "/v1/sessions", createBody(w, seed), nil); err != nil {
		s.stop()
		return nil, 0, fmt.Errorf("creating session: %w", err)
	}
	return s, time.Since(begin), nil
}
