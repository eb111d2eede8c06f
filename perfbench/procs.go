package main

import (
	"bufio"
	"context"
	"encoding/json"
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

// bench owns the built binaries, the scratch directory and every child
// process it starts.
type bench struct {
	bin  string
	work string

	mu    sync.Mutex
	procs []*proc
}

// proc is one started binary.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{}
	err  error
}

// start launches a built binary with its output in a log file under
// dir. The child is killed if the benchmark dies first.
func (b *bench) start(dir, name string, args ...string) (*proc, error) {
	logf, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-%d.log", name, time.Now().UnixNano())))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(b.bin, name), args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		logf.Close()
		close(p.done)
	}()
	b.mu.Lock()
	b.procs = append(b.procs, p)
	b.mu.Unlock()
	return p, nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func (p *proc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM in /proc status", p.name)
}

// stop asks the process to exit and waits for it, killing it if it has
// not exited after a grace period.
func (p *proc) stop() {
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is fine
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill() // it ignored SIGTERM; Wait below reaps it
		<-p.done
	}
}

// stopAll stops every process still running.
func (b *bench) stopAll() {
	b.mu.Lock()
	procs := b.procs
	b.procs = nil
	b.mu.Unlock()
	for _, p := range procs {
		p.stop()
	}
}

// freeAddr returns a loopback address with a port that was free a
// moment ago.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// fleet is one round's processes: ciaoserve plus, for distributed
// sweeps, two worker processes.
type fleet struct {
	base  string
	procs []*proc
	setup time.Duration
}

// startFleet launches ciaoserve on an empty sweep directory under dir,
// and the given number of worker processes, and returns once it serves
// /healthz and every worker has polled for a lease. setup covers
// launch to ready.
func (b *bench) startFleet(ctx context.Context, dir string, workers int) (*fleet, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	srv, err := b.start(dir, "ciaoserve", "-addr", addr, "-sweepdir", filepath.Join(dir, "sweeps"), "-workers", "2")
	if err != nil {
		return nil, err
	}
	f := &fleet{base: "http://" + addr, procs: []*proc{srv}}
	probe := &http.Client{Timeout: 2 * time.Second}
	if err := waitFor(ctx, srv, func() bool {
		resp, err := probe.Get(f.base + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	}); err != nil {
		return nil, err
	}
	for i := 0; i < workers; i++ {
		w, err := b.start(dir, "ciaosweep", "-worker", f.base, "-name", fmt.Sprintf("w%d", i), "-workers", "1")
		if err != nil {
			return nil, err
		}
		f.procs = append(f.procs, w)
	}
	if workers > 0 {
		if err := waitFor(ctx, srv, func() bool {
			var out struct {
				Workers []json.RawMessage `json:"workers"`
			}
			return getJSON(probe, f.base+"/coord/admin/leases", &out) == nil && len(out.Workers) >= workers
		}); err != nil {
			return nil, err
		}
	}
	f.setup = time.Since(t0)
	return f, nil
}

// waitFor polls ready every millisecond until it holds, the server
// exits, or ctx ends.
func waitFor(ctx context.Context, srv *proc, ready func() bool) error {
	for !ready() {
		select {
		case <-ctx.Done():
			return fmt.Errorf("waiting for %s: %w", srv.name, ctx.Err())
		case <-srv.done:
			return fmt.Errorf("%s exited during start-up: %v (log %s)", srv.name, srv.err, srv.log.Name())
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}

// peakRSSMB sums the peak resident sets of the fleet's processes.
func (f *fleet) peakRSSMB() (float64, error) {
	sum := 0.0
	for _, p := range f.procs {
		mb, err := p.peakRSSMB()
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

func (f *fleet) stop() {
	for i := len(f.procs) - 1; i >= 0; i-- {
		f.procs[i].stop()
	}
}

func getJSON(c *http.Client, url string, out any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// hostSteal reads the aggregate cpu line of /proc/stat and returns the
// jiffies stolen by the hypervisor and the total over all states.
func hostSteal() (steal, total uint64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal guest guest_nice
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		if i < 8 { // guest time is already counted in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}
