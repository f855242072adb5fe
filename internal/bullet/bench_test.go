package bullet

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"bulletfs/internal/disk"
)

// BenchmarkCreateDelete is the engine's share of the create_delete wall
// workload: Create(P-FACTOR 2) then Delete, over two file-backed replicas
// shaped like bulletd's (64 MiB, 10 000 inodes). Each pair writes the
// file and its inode block to both replicas, then the freed inode block
// to both again. The 4 KiB case is the wall workload's file; 64 KiB +
// 100 B is not a block multiple, so its slot has a zeroed tail; 1 MiB is
// the largest file the wall workloads create.
func BenchmarkCreateDelete(b *testing.B) {
	for _, size := range []int{4 << 10, 64<<10 + 100, 1 << 20} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) { benchCreateDelete(b, size) })
	}
}

func benchCreateDelete(b *testing.B, size int) {
	devs := make([]disk.Device, 2)
	for i := range devs {
		fd, err := disk.CreateFile(filepath.Join(b.TempDir(), fmt.Sprintf("d%d.img", i)), 512, 64<<20/512)
		if err != nil {
			b.Fatal(err)
		}
		devs[i] = fd
	}
	set, err := disk.NewReplicaSet(devs...)
	if err != nil {
		b.Fatal(err)
	}
	if err := Format(set, 10000); err != nil {
		b.Fatal(err)
	}
	srv, err := New(set, Options{CacheBytes: 8 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	data := bytes.Repeat([]byte{0x5a}, size)
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := srv.Create(data, 2)
		if err != nil {
			b.Fatal(err)
		}
		if err := srv.Delete(nil, nil, c); err != nil {
			b.Fatal(err)
		}
	}
}
