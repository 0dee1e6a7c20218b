package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// pooleddChildren lists the pooledd processes whose parent is ppid.
func pooleddChildren(ppid int) []int {
	entries, _ := os.ReadDir("/proc")
	var out []int
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		data, err := os.ReadFile(filepath.Join("/proc", e.Name(), "stat"))
		if err != nil {
			continue
		}
		// "pid (comm) state ppid ...": comm may hold spaces, so split
		// around the last parenthesis.
		s := string(data)
		open, end := strings.IndexByte(s, '('), strings.LastIndexByte(s, ')')
		f := strings.Fields(s[end+1:])
		if s[open+1:end] == "pooledd" && len(f) > 1 && f[1] == strconv.Itoa(ppid) {
			out = append(out, pid)
		}
	}
	return out
}

func alive(pid int) bool { return !errors.Is(syscall.Kill(pid, 0), syscall.ESRCH) }

// One workload end to end with about one second per phase, against real
// pooledd binaries: it must check out, report every end-to-end metric,
// and leave no child running.
func TestSmokeRealBinaries(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real pooledd processes")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin, err := buildPooledd(root, dir)
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{dir: dir, bin: bin, clients: runtime.NumCPU()}
	w, err := workloadByName("sync-exact")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := b.measure(ctx, w, 1, 3, false)
	children.stopAll()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("correct=%v attempted=%d failed=%d problems=%v", res.Correct, res.Attempted, res.Failed, res.Problems)
	}
	defs := append([]metricDef(nil), endToEnd...)
	for _, t := range timing {
		defs = append(defs, t.metricDef)
	}
	for _, d := range defs {
		if m := res.Metrics[d.name]; m.Value <= 0 || m.Unit != d.unit {
			t.Errorf("%s = %g %s, want a positive value in %s", d.name, m.Value, m.Unit, d.unit)
		}
	}
	if s := children.survivors(); len(s) > 0 {
		t.Errorf("children survived: %v", s)
	}
	if kids := pooleddChildren(os.Getpid()); len(kids) > 0 {
		t.Errorf("processes still parented by the benchmark: %v", kids)
	}
}

// SIGINT in the middle of a run stops every pooledd it started.
func TestInterruptStopsChildren(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real pooledd processes")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	exe := filepath.Join(t.TempDir(), "pooledbench")
	if out, err := exec.Command("go", "build", "-o", exe, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	cmd := exec.Command(exe, "-workload", "federated-exact", "-seconds", "60")
	cmd.Dir = root
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	var kids []int
	for deadline := time.Now().Add(time.Minute); len(kids) < 2; time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the benchmark started no worker and frontend")
		}
		kids = pooleddChildren(cmd.Process.Pid)
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err = cmd.Wait()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 130 {
		t.Errorf("exit after SIGINT: %v, want status 130", err)
	}
	for _, pid := range kids {
		if alive(pid) {
			t.Errorf("pooledd %d survived the interrupt", pid)
		}
	}
}
