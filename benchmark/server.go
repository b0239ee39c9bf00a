package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Fixed sizing of the server under test, identical on every machine
// with at least two cores.
const (
	serverWorkers    = 2
	serverGOMAXPROCS = "2"
	// outDir, relative to the repo root, is the one directory the
	// benchmark writes to: the server binary and the traced runs' span
	// files. It is git-ignored.
	outDir = "benchmark/out"
)

// findRoot walks up from the working directory to the repo's go.mod.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(b), "module repro\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the repro module: no go.mod found")
		}
		dir = parent
	}
}

// buildServer compiles cmd/icilk-serve from the checkout into outDir
// and returns the binary's path. The go tool
// skips the link when the binary is already current.
func buildServer(root string) (string, error) {
	bin := filepath.Join(root, outDir, "icilk-serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/icilk-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/icilk-serve: %v\n%s", err, out)
	}
	return bin, nil
}

// srvProc is one running icilk-serve subprocess.
type srvProc struct {
	cmd     *exec.Cmd
	addr    string
	readyMB float64       // VmRSS when the server first reported ready
	drained chan struct{} // closed when the stdout drain goroutine exits
}

// startServer launches the server on a free loopback port and returns
// once it reports that it is listening.
func startServer(bin string) (*srvProc, error) {
	cmd := exec.Command(bin, "serve", "-addr", "127.0.0.1:0", "-workers", strconv.Itoa(serverWorkers))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+serverGOMAXPROCS)
	// A benchmark that is killed must not leave its server running.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &srvProc{cmd: cmd, drained: make(chan struct{})}
	ready := make(chan string, 1)
	go func() {
		defer close(p.drained)
		defer close(ready)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			// "icilk-serve: listening on 127.0.0.1:37185 (workers=2, ...)"
			if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				ready <- addr
				break
			}
		}
		io.Copy(io.Discard, stdout) // keep the pipe empty until the server exits
	}()
	select {
	case addr, ok := <-ready:
		if !ok {
			p.stop()
			return nil, errors.New("icilk-serve exited before it was listening")
		}
		p.addr = addr
	case <-time.After(20 * time.Second):
		p.stop()
		return nil, errors.New("icilk-serve not listening after 20s")
	}
	if p.readyMB, err = procRSSMB(cmd.Process.Pid); err != nil {
		p.stop()
		return nil, err
	}
	return p, nil
}

// stop ends the server (SIGTERM, then SIGKILL after its drain bound)
// and returns once the process and the drain goroutine are gone.
func (p *srvProc) stop() error {
	p.cmd.Process.Signal(syscall.SIGTERM)
	kill := time.AfterFunc(10*time.Second, func() { p.cmd.Process.Kill() })
	<-p.drained // Wait closes the pipe, so the reader must finish first
	err := p.cmd.Wait()
	kill.Stop()
	return err
}

func (p *srvProc) pid() int { return p.cmd.Process.Pid }

// procRSSMB reads a process's resident set size from /proc.
func procRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: bad VmRSS %q", pid, line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmRSS", pid)
}

// clockTick is USER_HZ, the unit of the CPU times in /proc/<pid>/stat;
// it is 100 on every Linux architecture Go supports.
const clockTick = 100

// procCPU reads a process's user+system CPU time from /proc.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ')'.
	i := strings.LastIndexByte(string(b), ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64) // field 14
	stime, err2 := strconv.ParseInt(f[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// parseSchedLine extracts the scheduler counters from a /stats body:
// the line "scheduler: spawns=14 inline=0 ..." becomes a map.
func parseSchedLine(body string) (map[string]int64, error) {
	for _, line := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(line, "scheduler: ")
		if !ok {
			continue
		}
		m := map[string]int64{}
		for _, kv := range strings.Fields(rest) {
			k, v, ok := strings.Cut(kv, "=")
			n, err := strconv.ParseInt(v, 10, 64)
			if !ok || err != nil {
				return nil, fmt.Errorf("/stats: bad scheduler field %q", kv)
			}
			m[k] = n
		}
		return m, nil
	}
	return nil, errors.New("/stats: no scheduler line")
}

// fetchSched asks the server for /stats on a connection of its own and
// returns the scheduler counters.
func fetchSched(addr string) (map[string]int64, error) {
	h, err := dial(addr, time.Now().Add(ioDeadlineSlack))
	if err != nil {
		return nil, err
	}
	defer h.close()
	if err := h.send("/stats"); err != nil {
		return nil, err
	}
	r, err := h.recv()
	if err != nil {
		return nil, err
	}
	if r.status != 200 {
		return nil, fmt.Errorf("/stats: status %d", r.status)
	}
	return parseSchedLine(string(r.body))
}
