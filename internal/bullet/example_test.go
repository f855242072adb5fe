package bullet_test

import (
	"fmt"
	"log"

	"bulletfs/internal/bullet"
	"bulletfs/internal/capability"
	"bulletfs/internal/disk"
)

// The whole §2.2 interface against an in-memory two-replica engine:
// BULLET.CREATE with a paranoia factor, BULLET.SIZE, BULLET.READ,
// BULLET.DELETE — and the immutability in between.
func Example() {
	d0, _ := disk.NewMem(512, 4096)
	d1, _ := disk.NewMem(512, 4096)
	replicas, _ := disk.NewReplicaSet(d0, d1)
	if err := bullet.Format(replicas, 100); err != nil {
		log.Fatal(err)
	}
	srv, err := bullet.New(replicas, bullet.Options{CacheBytes: 1 << 20})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Sync()

	cap1, _ := srv.Create([]byte("an immutable file"), 2) // on both disks
	size, _ := srv.Size(nil, nil, cap1)
	data, _ := srv.Read(cap1)
	fmt.Printf("%d bytes: %s\n", size, data)

	// There is no write: updating means deriving a new file (§5). later is
	// the write-through the P-FACTOR did not wait for; run it after replying.
	cap2, later, _ := srv.Append(nil, nil, cap1, []byte(", new version"), 2)
	if later != nil {
		later()
	}
	v2, _ := srv.Read(cap2)
	fmt.Println(string(v2))

	_ = srv.Delete(nil, nil, cap1)
	if _, err := srv.Read(cap1); err != nil {
		fmt.Println("v1 deleted; v2 unaffected")
	}
	_ = capability.RightsAll // see package capability for protection
	// Output:
	// 17 bytes: an immutable file
	// an immutable file, new version
	// v1 deleted; v2 unaffected
}
