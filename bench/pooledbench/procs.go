package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
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

// buildPooledd compiles ./cmd/pooledd of the repository at root into
// dir and returns the binary's path. An up-to-date binary is not relinked.
func buildPooledd(root, dir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(dir, "pooledd"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/pooledd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build pooledd: %v\n%s", err, out)
	}
	return bin, nil
}

// repoRoot finds the pooleddata module root at or above the working
// directory.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(data, []byte("module pooleddata\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no pooleddata module at or above the working directory")
		}
		dir = parent
	}
}

// freeAddr returns a loopback address with a port nothing listens on
// right now, so a stray server left by another run cannot answer in place
// of this run's. A child that loses the port to someone else before it
// binds exits, and waitReady reports that.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// proc is one pooledd child. It runs in its own process group, so
// stopping it also stops anything it started.
type proc struct {
	name   string
	addr   string
	cmd    *exec.Cmd
	stderr string // path of the file holding its stdout and stderr
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
}

// children tracks every process the benchmark started, for cleanup on any
// exit path and for the survivor check.
var children procSet

type procSet struct {
	mu    sync.Mutex
	procs []*proc
}

// start launches bin with args, its output going to name.log in dir.
func (ps *procSet) start(dir, bin, name, addr string, args ...string) (*proc, error) {
	logPath := filepath.Join(dir, name+".log")
	f, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer f.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = f, f
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, addr: addr, cmd: cmd, stderr: logPath, exited: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		close(p.exited)
	}()
	ps.procs = append(ps.procs, p)
	return p, nil
}

// stop sends SIGTERM to p's process group, escalates to SIGKILL after
// grace, and waits until p has exited. A reaped p is not signalled
// again: its pid may belong to someone else by then.
func (p *proc) stop(grace time.Duration) {
	select {
	case <-p.exited:
		return
	default:
	}
	pgid := p.cmd.Process.Pid
	_ = syscall.Kill(-pgid, syscall.SIGTERM) // ESRCH: exited since the check
	select {
	case <-p.exited:
	case <-time.After(grace):
		_ = syscall.Kill(-pgid, syscall.SIGKILL)
		<-p.exited
	}
}

// stopAll stops every tracked child.
func (ps *procSet) stopAll() {
	ps.mu.Lock()
	procs := append([]*proc(nil), ps.procs...)
	ps.mu.Unlock()
	var wg sync.WaitGroup
	for _, p := range procs {
		wg.Add(1)
		go func(p *proc) {
			defer wg.Done()
			p.stop(5 * time.Second)
		}(p)
	}
	wg.Wait()
}

// survivors names every tracked child, or member of its process group,
// that is still alive.
func (ps *procSet) survivors() []string {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	var out []string
	for _, p := range ps.procs {
		select {
		case <-p.exited:
		default:
			out = append(out, fmt.Sprintf("%s (pid %d) still running", p.name, p.cmd.Process.Pid))
			continue
		}
		if err := syscall.Kill(-p.cmd.Process.Pid, 0); !errors.Is(err, syscall.ESRCH) {
			out = append(out, fmt.Sprintf("process group of %s (pid %d) still has members", p.name, p.cmd.Process.Pid))
		}
	}
	return out
}

// logTail returns the last lines of p's output, for failure reports.
func (p *proc) logTail() string {
	data, err := os.ReadFile(p.stderr)
	if err != nil {
		return err.Error()
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) > 20 {
		lines = lines[len(lines)-20:]
	}
	return strings.Join(lines, "\n")
}

// waitReady polls url until it answers 200, failing early if p exits.
func waitReady(ctx context.Context, p *proc, url string) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for {
		select {
		case <-p.exited:
			return fmt.Errorf("%s exited during boot: %v\n%s", p.name, p.err, p.logTail())
		case <-ctx.Done():
			return fmt.Errorf("%s not ready at %s: %w\n%s", p.name, url, ctx.Err(), p.logTail())
		default:
		}
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times;
// it is 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// cpuTime is p's user+system CPU time so far.
func (p *proc) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime and stime are fields 14 and 15.
	rest := string(data[bytes.LastIndexByte(data, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat for %s", p.name)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * clockTick, nil
}

// peakRSS is p's VmHWM in MB.
func (p *proc) peakRSS() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM for %s", p.name)
}
