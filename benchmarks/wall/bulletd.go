package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"bulletfs/internal/capability"
)

const (
	replicas = 2
	// serviceName is bulletd's default -port; the capability port derives
	// from it, so the harness can address the server without asking.
	serviceName = "bullet"
	startWait   = 30 * time.Second
	stopWait    = 20 * time.Second
)

var bulletPort = capability.PortFromString(serviceName)

// buildBulletd compiles the real cmd/bulletd from the checkout at root, so
// the binary under test is whatever that checkout's sources say.
func buildBulletd(root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "bulletd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/bulletd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/bulletd in %s: %v\n%s", root, err, out)
	}
	return bin, nil
}

// child is a server process the harness started: bulletd or the null
// server. Both announce their address on one line of standard output.
type child struct {
	cmd        *exec.Cmd
	addr       string
	stdin      io.Closer
	drained    sync.WaitGroup
	stderrTail tailBuffer
	slowTraces atomic.Int64 // JSON lines on stderr: bulletd's -slowms log
}

// tailBuffer keeps the last few KiB written to it, for error messages.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 4096 {
		t.buf = t.buf[len(t.buf)-4096:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// startChild execs bin and waits for a standard-output line containing
// marker; the address is the last field of that line.
func startChild(bin string, args []string, marker string) (*child, error) {
	c := &child{cmd: exec.Command(bin, args...)}
	// The servers must not outlive a harness that dies without cleaning up.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdin, err := c.cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	c.stdin = stdin
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := c.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	c.drained.Add(2)
	go func() {
		defer c.drained.Done()
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 4<<20)
		for sc.Scan() {
			if bytes.HasPrefix(sc.Bytes(), []byte("{")) {
				c.slowTraces.Add(1)
			}
			c.stderrTail.Write(append(sc.Bytes(), '\n')) //nolint:errcheck // cannot fail
		}
	}()
	found := make(chan string, 1)
	go func() {
		defer c.drained.Done()
		sc := bufio.NewScanner(stdout)
		announced := false
		for sc.Scan() {
			if line := sc.Text(); !announced && strings.Contains(line, marker) {
				f := strings.Fields(line)
				found <- f[len(f)-1]
				announced = true
			}
		}
		if !announced {
			close(found)
		}
	}()
	select {
	case addr, ok := <-found:
		if !ok {
			c.cmd.Wait() //nolint:errcheck // reported through stderr below
			return nil, fmt.Errorf("%s exited before announcing its address:\n%s", bin, c.stderrTail.String())
		}
		c.addr = addr
		return c, nil
	case <-time.After(startWait):
		c.kill()
		return nil, fmt.Errorf("%s did not announce its address within %v", bin, startWait)
	}
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// stop asks the process to exit (SIGTERM, which bulletd turns into a
// drain + engine close) and waits for it; a process that ignores the
// request is killed and reported.
func (c *child) stop() error {
	c.stdin.Close()
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	done := make(chan error, 1)
	go func() {
		c.drained.Wait()
		done <- c.cmd.Wait()
	}()
	select {
	case err := <-done:
		var ee *exec.ExitError
		if errors.As(err, &ee) && ee.ExitCode() == -1 {
			return nil // ended by our signal: the null server has no handler
		}
		if err != nil {
			return fmt.Errorf("%s: %w\n%s", c.cmd.Path, err, c.stderrTail.String())
		}
		return nil
	case <-time.After(stopWait):
		c.kill()
		return fmt.Errorf("%s ignored SIGTERM for %v and was killed", c.cmd.Path, stopWait)
	}
}

func (c *child) kill() {
	c.cmd.Process.Kill() //nolint:errcheck // already gone is fine
	c.cmd.Wait()         //nolint:errcheck // reaping only
}

// imagePaths names the replica images of a server living in dir.
func imagePaths(dir string) []string {
	p := make([]string, replicas)
	for i := range p {
		p[i] = filepath.Join(dir, fmt.Sprintf("d%d.img", i))
	}
	return p
}

func startBulletd(bin, dir string, sp *spec, format bool) (*child, error) {
	args := []string{"-disks", strings.Join(imagePaths(dir), ","), "-listen", "127.0.0.1:0", "-cache", strconv.Itoa(cacheMB)}
	if format {
		args = append(args, "-format", "-size", strconv.Itoa(sp.sizeMB), "-inodes", strconv.Itoa(sp.inodes))
	}
	return startChild(bin, args, "bulletd serving on")
}

func startNullServer() (*child, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return startChild(self, []string{"-null-server"}, "null server listening on")
}

// cpuNanos is the on-CPU time of every thread of pid, from the first
// field of /proc/<pid>/task/*/schedstat.
func cpuNanos(pid int) (int64, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited between ReadDir and here
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty schedstat for %d/%s", pid, t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		total += ns
	}
	return total, nil
}

// stolenJiffies is the machine's steal time so far, the eighth value of
// the "cpu" line of /proc/stat: time a vCPU had work to do while the
// hypervisor ran something else. It stays 0 where no hypervisor reports it.
func stolenJiffies() (int64, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, fmt.Errorf("/proc/stat: no steal time in %q", line)
	}
	return strconv.ParseInt(f[8], 10, 64)
}

// peakRSSMB is VmHWM from /proc/<pid>/status, in MB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
