package main

import (
	"bufio"
	"errors"
	"fmt"
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

// proc is one running server binary.
type proc struct {
	name  string
	cmd   *exec.Cmd
	addr  string // "serving on" address
	debug string // "debug on" address
	done  chan struct{}
	err   error // exit status, valid once done is closed
}

const bootTimeout = 150 * time.Second

// startProc launches bin with args and waits until it prints its serving
// address. Stderr goes to logDir/name.log.
func startProc(name, bin string, args []string, logDir string) (*proc, error) {
	logFile, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	p := &proc{name: name, cmd: exec.Command(bin, args...), done: make(chan struct{})}
	p.cmd.Stderr = logFile
	// A server must not outlive the benchmark, even one killed mid-run.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := p.cmd.StdoutPipe()
	if err != nil {
		logFile.Close()
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	addrs := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "debug on "); ok {
				p.debug = a
			}
			if a, ok := strings.CutPrefix(line, "serving on "); ok && !sent {
				addrs <- a
				sent = true
			}
		}
		p.err = p.cmd.Wait()
		logFile.Close()
		close(p.done)
	}()
	select {
	case a := <-addrs:
		p.addr = a
		return p, nil
	case <-p.done:
		return nil, fmt.Errorf("%s exited before serving (%v); see %s.log", name, p.err, name)
	case <-time.After(bootTimeout):
		p.stop()
		return nil, fmt.Errorf("%s did not start serving within %s", name, bootTimeout)
	}
}

// stop sends SIGTERM, waits for the exit, and kills after a grace period.
func (p *proc) stop() {
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// hwmMB reads the process's peak resident set (VmHWM) in MiB.
func (p *proc) hwmMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// waitReady polls GET /readyz until it answers 200.
func waitReady(addr string) error {
	deadline := time.Now().Add(bootTimeout)
	client := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		resp, err := client.Get("http://" + addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s never answered /readyz 200", addr)
}

// topology is a booted serving set: the servers, an optional router in
// front of them, and the URL clients send to.
type topology struct {
	servers []*proc
	router  *proc
	url     string
}

func (t *topology) procs() []*proc {
	ps := append([]*proc(nil), t.servers...)
	if t.router != nil {
		ps = append(ps, t.router)
	}
	return ps
}

func (t *topology) stop() {
	var wg sync.WaitGroup
	for _, p := range t.procs() {
		wg.Add(1)
		go func(p *proc) {
			defer wg.Done()
			p.stop()
		}(p)
	}
	wg.Wait()
}

// rssMB sums VmHWM over the server processes.
func (t *topology) rssMB() (float64, error) {
	var total float64
	for _, p := range t.procs() {
		mb, err := p.hwmMB()
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// routerArgs are ibrouter's flags besides -shards, whose addresses are
// only known once the servers run.
var routerArgs = []string{"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0", "-quiet"}

// boot launches the workload's servers (in parallel), then its router, and
// returns once every process answers /readyz 200, with the elapsed time.
func boot(w *workload, env *runEnv) (*topology, float64, error) {
	start := time.Now()
	t := &topology{}
	procs := make([]*proc, w.servers)
	errs := make([]error, w.servers)
	var wg sync.WaitGroup
	for i := range procs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			args := append(env.commonServerArgs(), w.serverArgs(i, env.prep)...)
			procs[i], errs[i] = startProc(fmt.Sprintf("ibserve%d", i), env.bin("ibserve"), args, env.logDir)
			if errs[i] == nil {
				errs[i] = waitReady(procs[i].addr)
			}
		}(i)
	}
	wg.Wait()
	for i := range procs {
		if procs[i] != nil {
			t.servers = append(t.servers, procs[i])
		}
	}
	if err := errors.Join(errs...); err != nil {
		t.stop()
		return nil, 0, err
	}
	t.url = "http://" + t.servers[0].addr
	if w.routed {
		shards := make([]string, len(t.servers))
		for i, p := range t.servers {
			shards[i] = p.addr
		}
		args := append([]string{"-shards", strings.Join(shards, ",")}, routerArgs...)
		rt, err := startProc("ibrouter", env.bin("ibrouter"), args, env.logDir)
		if err == nil {
			t.router = rt
			err = waitReady(rt.addr)
		}
		if err != nil {
			t.stop()
			return nil, 0, err
		}
		t.url = "http://" + rt.addr
	}
	return t, time.Since(start).Seconds(), nil
}
