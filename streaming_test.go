package bulletfs_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"bulletfs"
	"bulletfs/internal/bullet"
	"bulletfs/internal/capability"
	"bulletfs/internal/client"
	"bulletfs/internal/rpc"
)

// These tests exercise the streaming read path and the READ_RANGE edge
// cases over real TCP sockets — the zero-copy reply path (pinned cache
// bytes handed to the socket write), the chunked READSTREAM frames, and
// the create-session upload all behave differently on the wire than
// in-process, so the wire is what gets tested.

func newWireStore(t *testing.T) (*bulletfs.Store, *client.Client) {
	t.Helper()
	st, err := bulletfs.NewStore(bulletfs.StoreConfig{PortName: "stream-test", DiskMB: 16})
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	t.Cleanup(func() { st.Close() }) //nolint:errcheck // test cleanup
	addr, err := st.ServeTCP("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeTCP: %v", err)
	}
	tr := rpc.NewTCPTransport(rpc.StaticResolver(map[capability.Port]string{st.Port(): addr}), 10*time.Second)
	t.Cleanup(func() { tr.Close() }) //nolint:errcheck // test cleanup
	return st, client.New(tr)
}

func TestReadRangeEdgeCasesOverWire(t *testing.T) {
	st, cl := newWireStore(t)
	data := []byte("0123456789abcdef")
	c, err := cl.Create(st.Port(), data, 1)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	empty, err := cl.Create(st.Port(), nil, 1)
	if err != nil {
		t.Fatalf("Create(empty): %v", err)
	}

	cases := []struct {
		name    string
		cap     capability.Capability
		off, n  int64
		want    []byte
		wantErr error
	}{
		{"interior", c, 4, 4, []byte("4567"), nil},
		{"to-end", c, 10, -1, []byte("abcdef"), nil},
		{"clipped-at-eof", c, 12, 100, []byte("cdef"), nil},
		{"offset-at-eof", c, 16, 4, []byte{}, nil},
		{"offset-past-eof", c, 17, 1, nil, bullet.ErrBadOffset},
		{"zero-length", c, 4, 0, []byte{}, nil},
		{"empty-file-whole", empty, 0, -1, []byte{}, nil},
		{"empty-file-span", empty, 0, 8, []byte{}, nil},
		{"empty-file-past-eof", empty, 1, 1, nil, bullet.ErrBadOffset},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := cl.ReadRange(tc.cap, tc.off, tc.n)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("ReadRange(%d, %d) err = %v, want %v", tc.off, tc.n, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("ReadRange(%d, %d): %v", tc.off, tc.n, err)
			}
			if !bytes.Equal(got, tc.want) {
				t.Fatalf("ReadRange(%d, %d) = %q, want %q", tc.off, tc.n, got, tc.want)
			}
		})
	}
}

func TestReadStreamOverWire(t *testing.T) {
	st, cl := newWireStore(t)
	// Larger than the server's default 256 KiB chunk, so the reply spans
	// multiple AMRS frames off one pin.
	data := make([]byte, 1<<20)
	for i := range data {
		data[i] = byte(i * 31)
	}
	c, err := cl.Create(st.Port(), data, 1)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}

	var buf bytes.Buffer
	n, err := cl.ReadStream(c, 0, &buf)
	if err != nil {
		t.Fatalf("ReadStream: %v", err)
	}
	if n != int64(len(data)) || !bytes.Equal(buf.Bytes(), data) {
		t.Fatalf("ReadStream returned %d bytes (want %d), content match = %v",
			n, len(data), bytes.Equal(buf.Bytes(), data))
	}

	// From an interior offset.
	buf.Reset()
	n, err = cl.ReadStream(c, int64(len(data))-1000, &buf)
	if err != nil {
		t.Fatalf("ReadStream(tail): %v", err)
	}
	if n != 1000 || !bytes.Equal(buf.Bytes(), data[len(data)-1000:]) {
		t.Fatalf("ReadStream(tail) = %d bytes, want 1000 matching the file tail", n)
	}

	// Zero-length stream: an empty file still completes the transaction.
	empty, err := cl.Create(st.Port(), nil, 1)
	if err != nil {
		t.Fatalf("Create(empty): %v", err)
	}
	buf.Reset()
	if n, err = cl.ReadStream(empty, 0, &buf); err != nil || n != 0 {
		t.Fatalf("ReadStream(empty) = %d, %v; want 0, nil", n, err)
	}

	// A transaction after a stream proves the connection is still framed
	// correctly (no stray frames left unread).
	size, err := cl.Size(c)
	if err != nil || size != int64(len(data)) {
		t.Fatalf("Size after stream = %d, %v", size, err)
	}
}

// TestConcurrentStreamReadsUnderCompaction races the pinned-View reply
// path against cache eviction and both compactors: streaming readers
// hold pins across socket writes while churn (create/delete) and
// explicit compaction runs try to move everything underneath them. The
// disk compactor runs over the wire (COMPACT-DISK); the cache compactor
// has no wire command, so it runs on the store's engine. Run under -race
// in CI's race-stress step.
func TestConcurrentStreamReadsUnderCompaction(t *testing.T) {
	st, cl := newWireStore(t)
	// Stable files the readers hammer.
	files := make([]capability.Capability, 4)
	payloads := make([][]byte, len(files))
	for i := range files {
		payloads[i] = bytes.Repeat([]byte{byte('A' + i)}, 64<<10)
		c, err := cl.Create(st.Port(), payloads[i], 1)
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		files[i] = c
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Readers: whole-file streams and interior ranges.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				f := (r + i) % len(files)
				var buf bytes.Buffer
				if _, err := cl.ReadStream(files[f], 0, &buf); err != nil {
					t.Errorf("ReadStream: %v", err)
					return
				}
				if !bytes.Equal(buf.Bytes(), payloads[f]) {
					t.Errorf("ReadStream returned wrong bytes for file %d", f)
					return
				}
				if got, err := cl.ReadRange(files[f], 1000, 512); err != nil ||
					!bytes.Equal(got, payloads[f][1000:1512]) {
					t.Errorf("ReadRange under churn: %v", err)
					return
				}
			}
		}(r)
	}

	// Churn: transient files force eviction pressure; deletes punch holes
	// for the compactors to close.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c, err := cl.Create(st.Port(), bytes.Repeat([]byte{byte(i)}, 32<<10), 1)
			if err != nil {
				t.Errorf("churn Create: %v", err)
				return
			}
			if err := cl.Delete(c); err != nil {
				t.Errorf("churn Delete: %v", err)
				return
			}
		}
	}()

	// Compactors.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := st.Engine().CompactCache(); err != nil {
				t.Errorf("CompactCache: %v", err)
				return
			}
			if err := cl.CompactDisk(st.Port()); err != nil {
				t.Errorf("CompactDisk: %v", err)
				return
			}
		}
	}()

	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()
	if n := st.Engine().CacheStats().Compactions; n == 0 {
		t.Fatal("the cache was never compacted: the race this test is for did not run")
	}

	for i, f := range files {
		got, err := cl.Read(f)
		if err != nil || !bytes.Equal(got, payloads[i]) {
			t.Fatalf("file %d corrupt after churn: %v", i, err)
		}
	}
}

// TestGroupCommitOverWire drives concurrent small creates through a
// store with group commit enabled and verifies every file and the
// batching counters.
func TestGroupCommitOverWire(t *testing.T) {
	st, err := bulletfs.NewStore(bulletfs.StoreConfig{
		PortName: "gc-test", DiskMB: 16,
		GroupCommitWindow: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	defer st.Close() //nolint:errcheck // test cleanup
	addr, err := st.ServeTCP("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeTCP: %v", err)
	}
	resolver := rpc.StaticResolver(map[capability.Port]string{st.Port(): addr})
	tr := rpc.NewTCPTransport(resolver, 10*time.Second)
	defer tr.Close() //nolint:errcheck // test cleanup
	cl := client.New(tr)

	// One transport per worker: the pooled TCP transport serializes
	// requests per connection, and group commit only batches creates that
	// are actually concurrent at the server — i.e. from separate clients.
	const n = 32
	caps := make([]capability.Capability, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wtr := rpc.NewTCPTransport(resolver, 10*time.Second)
			defer wtr.Close() //nolint:errcheck // test cleanup
			caps[i], errs[i] = client.New(wtr).Create(st.Port(), []byte(fmt.Sprintf("file-%03d", i)), 1)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("Create %d: %v", i, errs[i])
		}
		got, err := cl.Read(caps[i])
		if err != nil || string(got) != fmt.Sprintf("file-%03d", i) {
			t.Fatalf("Read %d = %q, %v", i, got, err)
		}
	}
	// Batching happened: fewer sync rounds than creates.
	snap := st.Engine().Metrics().Snapshot()
	batches := snap.Gauges["disk.group_commit_batches"]
	entries := snap.Gauges["disk.group_commit_entries"]
	if entries != n {
		t.Fatalf("group_commit_entries = %d, want %d", entries, n)
	}
	if batches >= n {
		t.Fatalf("group_commit_batches = %d, want < %d (no batching happened)", batches, n)
	}
}
