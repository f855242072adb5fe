package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"bulletfs/internal/capability"
	"bulletfs/internal/client"
	"bulletfs/internal/rpc"
	"bulletfs/internal/stats"
)

// wantFlags is bulletd's whole configuration surface; everything else is
// a constant (see the package doc).
var wantFlags = []string{
	"cache", "disks", "format", "group-commit", "http",
	"inodes", "listen", "max-inflight", "port", "size",
}

// daemon is one running bulletd child.
type daemon struct {
	cmd      *exec.Cmd
	addr     string // RPC address
	httpAddr string // -http address, "" if not served
	stderr   bytes.Buffer
	exited   chan error // the child's exit, once its stdout is drained
}

var (
	servingRE = regexp.MustCompile(`^bulletd serving on (\S+)$`)
	httpRE    = regexp.MustCompile(`http://([^/]+)/debug/stats`)
)

// TestDaemon boots the shipped bulletd binary on two file-backed images:
// put, get and delete over TCP, a /debug/stats scrape, a clean SIGTERM
// shutdown, and a restart that reads a P-FACTOR 2 file back. It also pins
// the flag set that -h lists.
func TestDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the bulletd binary")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "bulletd")
	if out, err := exec.Command(goBin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	t.Run("flags", func(t *testing.T) {
		out, err := exec.Command(bin, "-h").CombinedOutput()
		if err != nil {
			t.Fatalf("bulletd -h: %v\n%s", err, out)
		}
		var got []string
		for _, line := range strings.Split(string(out), "\n") {
			if strings.HasPrefix(line, "  -") {
				got = append(got, strings.Fields(line)[0][1:])
			}
		}
		sort.Strings(got)
		if strings.Join(got, " ") != strings.Join(wantFlags, " ") {
			t.Fatalf("bulletd -h lists %d flags %v, want %d %v", len(got), got, len(wantFlags), wantFlags)
		}
	})

	disks := filepath.Join(dir, "d0.img") + "," + filepath.Join(dir, "d1.img")
	d := startDaemon(t, bin, "-disks", disks, "-format", "-size", "8", "-inodes", "1000",
		"-listen", "127.0.0.1:0", "-http", "127.0.0.1:0")
	cl := dial(t, d.addr)
	port := capability.PortFromString("bullet")

	scratch := []byte("put, get and delete over TCP")
	c, err := cl.Create(port, scratch, 1)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if got, err := cl.Read(c); err != nil || !bytes.Equal(got, scratch) {
		t.Fatalf("Read = %q, %v; want %q", got, err, scratch)
	}
	if err := cl.Delete(c); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := cl.Read(c); err == nil {
		t.Fatal("Read after Delete succeeded")
	}
	kept := bytes.Repeat([]byte("survives a restart at P-FACTOR 2\n"), 100)
	keptCap, err := cl.Create(port, kept, 2)
	if err != nil {
		t.Fatalf("Create(pfactor 2): %v", err)
	}

	resp, err := http.Get("http://" + d.httpAddr + "/debug/stats")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/stats: status %d, %v", resp.StatusCode, err)
	}
	var snap stats.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/debug/stats body is not a snapshot: %v", err)
	}
	if snap.Counters["bullet.creates"] != 2 || snap.Counters["bullet.deletes"] != 1 {
		t.Fatalf("/debug/stats counts creates %d, deletes %d; want 2, 1",
			snap.Counters["bullet.creates"], snap.Counters["bullet.deletes"])
	}

	d.stop(t)

	d = startDaemon(t, bin, "-disks", disks, "-listen", "127.0.0.1:0")
	if got, err := dial(t, d.addr).Read(keptCap); err != nil || !bytes.Equal(got, kept) {
		t.Fatalf("Read after restart: %d bytes, %v; want %d bytes", len(got), err, len(kept))
	}
	d.stop(t)
}

// startDaemon runs bulletd with args and waits for it to announce its
// addresses. The child is killed at cleanup if the test has not stopped it.
func startDaemon(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	d := &daemon{cmd: exec.Command(bin, args...), exited: make(chan error, 1)}
	d.cmd.Stderr = &d.stderr
	out, err := d.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		d.cmd.Process.Kill() //nolint:errcheck // already gone is fine
		<-d.exited
	})
	ready := make(chan struct{})
	go func() {
		sc := bufio.NewScanner(out)
		wantHTTP := strings.Contains(strings.Join(args, " "), "-http")
		announced := false
		for sc.Scan() {
			if m := servingRE.FindStringSubmatch(sc.Text()); m != nil {
				d.addr = m[1]
			}
			if m := httpRE.FindStringSubmatch(sc.Text()); m != nil {
				d.httpAddr = m[1]
			}
			if !announced && d.addr != "" && (!wantHTTP || d.httpAddr != "") {
				close(ready)
				announced = true
			}
		}
		d.exited <- d.cmd.Wait()
		close(d.exited)
	}()
	select {
	case <-ready:
		return d
	case <-d.exited:
		t.Fatalf("bulletd exited before announcing its addresses:\n%s", d.stderr.String())
	case <-time.After(30 * time.Second):
		t.Fatal("bulletd did not announce its addresses within 30s")
	}
	return nil
}

// stop sends SIGTERM and requires a clean exit.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-d.exited:
		if err != nil {
			t.Fatalf("bulletd after SIGTERM: %v\n%s", err, d.stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("bulletd ignored SIGTERM for 30s")
	}
}

// dial returns a client for the bulletd at addr.
func dial(t *testing.T, addr string) *client.Client {
	t.Helper()
	port := capability.PortFromString("bullet")
	tr := rpc.NewTCPTransport(rpc.StaticResolver(map[capability.Port]string{port: addr}), 10*time.Second)
	t.Cleanup(func() {
		tr.Close() //nolint:errcheck // test teardown
	})
	return client.New(tr)
}
