package bullet

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"bulletfs/internal/disk"
)

// BenchmarkCreateDelete is the engine's share of the create_delete wall
// workload: Create(4 KiB, P-FACTOR 2) then Delete, over two file-backed
// replicas shaped like bulletd's (64 MiB, 10 000 inodes). Each pair
// writes the file and its inode block to both replicas, then the freed
// inode block to both again.
func BenchmarkCreateDelete(b *testing.B) {
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
	data := bytes.Repeat([]byte{0x5a}, 4<<10)
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
