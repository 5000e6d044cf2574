package main

import (
	"bufio"
	"context"
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

// proc is one child process of the benchmark.
type proc struct {
	name  string
	cmd   *exec.Cmd
	url   string // base URL for serving processes
	start time.Time
	ready time.Duration // process start to first healthz 200
	done  chan struct{} // closed once Wait returned
}

// command prepares a child that dies with the benchmark and logs to a
// file in the run directory.
func command(dir, logName, bin string, args ...string) (*exec.Cmd, error) {
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	log, err := os.Create(filepath.Join(dir, logName))
	if err != nil {
		return nil, err
	}
	cmd.Stdout, cmd.Stderr = log, log
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd, nil
}

// run executes a child to completion and returns its wall time.
func run(dir, logName, bin string, args ...string) (time.Duration, error) {
	cmd, err := command(dir, logName, bin, args...)
	if err != nil {
		return 0, err
	}
	defer cmd.Stdout.(io.Closer).Close()
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("%s %s: %w (see %s)", filepath.Base(bin), strings.Join(args, " "), err, filepath.Join(dir, logName))
	}
	return time.Since(t0), nil
}

// freeAddr returns the first loopback address from port upwards that no
// listener holds right now. The gateway's hash ring is keyed on replica
// URLs, so stable ports keep each tenant on the same replica from run to
// run, and the traced run can rebuild the same ring.
func freeAddr(port int) (string, error) {
	var err error
	for p := port; p < port+100; p++ {
		var ln net.Listener
		if ln, err = net.Listen("tcp", "127.0.0.1:"+strconv.Itoa(p)); err == nil {
			return ln.Addr().String(), ln.Close()
		}
	}
	return "", fmt.Errorf("no free loopback port from %d: %w", port, err)
}

// startServing starts a long-running HTTP process on a loopback port at
// or above port.
func startServing(dir, name string, port int, bin string, args ...string) (*proc, error) {
	addr, err := freeAddr(port)
	if err != nil {
		return nil, err
	}
	cmd, err := command(dir, name+".log", bin, append(args, "-addr", addr)...)
	if err != nil {
		return nil, err
	}
	p := &proc{name: name, cmd: cmd, url: "http://" + addr, start: time.Now(), done: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		_ = cmd.Stdout.(io.Closer).Close() // nothing was written
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		_ = cmd.Wait() // the exit status is reported through waitHealthy or stop
		_ = cmd.Stdout.(io.Closer).Close()
		close(p.done)
	}()
	return p, nil
}

// waitHealthy polls /v1/healthz until it answers 200, recording the time
// from process start.
func (p *proc) waitHealthy(ctx context.Context) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited during start-up (see %s.log)", p.name, p.name)
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := client.Get(p.url + "/v1/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				p.ready = time.Since(p.start)
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s not healthy after 60s", p.name)
}

// stop interrupts the process (a graceful drain) and waits for it to
// exit, killing it if the drain takes longer than 10s.
func (p *proc) stop() {
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Signal(os.Interrupt) // already exiting if this fails
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill() // the drain hung; Wait below reaps it
		<-p.done
	}
}

// clockTick is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// it is 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// cpuTime reads utime+stime of a live process from /proc.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, 12 and 13 after the name.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return time.Duration(ut+st) * clockTick, nil
}

// peakRSS reads VmHWM (peak resident set) of a live process in bytes.
func peakRSS(pid int) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0, err
		}
		return kb << 10, nil
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// hostSteal reads the cumulative steal and total ticks of all CPUs from
// /proc/stat: time the hypervisor ran something else while this host's
// vCPUs wanted to run. It explains noisy runs; it is not a metric.
func hostSteal() (steal, total int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("malformed /proc/stat")
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0, errors.New("malformed /proc/stat")
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, nil
}
