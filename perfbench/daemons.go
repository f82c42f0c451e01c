package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/transport"
)

// daemon is one spawned daemon process. Its stdout and stderr go to a log
// file under the run directory, which is printed if the run fails.
type daemon struct {
	name    string
	cmd     *exec.Cmd
	logPath string
	logf    *os.File
	metrics string // observability HTTP address
	done    chan struct{}
}

// freeAddrs reserves n distinct loopback ports, holding each until all
// are chosen, and releases them for a daemon to bind.
func freeAddrs(n int) ([]string, error) {
	var out []string
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		out = append(out, ln.Addr().String())
	}
	return out, nil
}

// startDaemon spawns bin with args, serving its observability endpoint
// on maddr. Diagnostic dumps go to TMPDIR, which points inside the run
// directory.
func startDaemon(dir, bin, name, maddr string, args ...string) (*daemon, error) {
	tmp := filepath.Join(dir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	logPath := filepath.Join(dir, name+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(bin, name), append(args, "-metrics", maddr)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
	// A killed load generator must not leave daemons behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	d := &daemon{name: name, cmd: cmd, logPath: logPath, logf: logf, metrics: maddr, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(d.done)
	}()
	return d, nil
}

// stop sends SIGTERM, waits for a clean exit, and kills the process if it
// has not exited within ten seconds. It always waits for the exit.
func (d *daemon) stop() {
	select {
	case <-d.done:
	default:
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.done:
		case <-time.After(10 * time.Second):
			d.cmd.Process.Kill()
			<-d.done
		}
	}
	d.logf.Close()
}

// lostPort reports whether the daemon has exited because a port reserved
// for it was taken before it could bind it.
func (d *daemon) lostPort() bool {
	select {
	case <-d.done:
	default:
		return false
	}
	b, err := os.ReadFile(d.logPath)
	return err == nil && strings.Contains(string(b), "address already in use")
}

// exited reports an early exit, with the tail of the daemon's log.
func (d *daemon) exited() error {
	select {
	case <-d.done:
		return fmt.Errorf("%s exited early:\n%s", d.name, tail(d.logPath, 20))
	default:
		return nil
	}
}

func tail(path string, n int) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// waitFor polls cond every 5 ms until it returns true, the daemon exits,
// or the timeout passes.
func (d *daemon) waitFor(what string, timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if err := d.exited(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: timed out waiting for %s:\n%s", d.name, what, tail(d.logPath, 20))
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// dialWhenUp waits until addr accepts an RPC connection and returns it.
func (d *daemon) dialWhenUp(addr string) (*transport.Client, error) {
	var c *transport.Client
	err := d.waitFor("RPC listener "+addr, 30*time.Second, func() bool {
		var err error
		c, err = transport.DialTimeout(addr, time.Second)
		return err == nil
	})
	return c, err
}

// scrape reads the daemon's /metrics.json snapshot.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := http.Get("http://" + d.metrics + "/metrics.json")
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", d.name, err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("scraping %s: %w", d.name, err)
	}
	return out, nil
}

// peakRSSMB is the daemon's peak resident set (VmHWM) in MB.
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM of %s: %w", d.name, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for %s", d.name)
}

// cpuSeconds is the daemon's user plus system CPU time so far.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (USER_HZ = 100).
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat for %s", d.name)
	}
	ut, err1 := strconv.ParseFloat(fields[11], 64)
	st, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat for %s", d.name)
	}
	return (ut + st) / 100, nil
}
