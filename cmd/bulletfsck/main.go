// Command bulletfsck checks (and optionally repairs) a Bullet disk image
// offline — the §3 startup consistency scan as an operator tool: files
// must lie inside the data area and must not overlap; inconsistent inodes
// are zeroed.
//
//	bulletfsck disk0.img              # report only
//	bulletfsck -repair disk0.img      # persist the fixes
//	bulletfsck -repair d0.img d1.img  # check each replica
package main

import (
	"flag"
	"fmt"
	"os"

	"bulletfs/internal/alloc"
	"bulletfs/internal/disk"
	"bulletfs/internal/layout"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bulletfsck:", err)
		os.Exit(1)
	}
}

func run() error {
	repair := flag.Bool("repair", false, "write fixes back to the image")
	flag.Parse()
	if flag.NArg() == 0 {
		return fmt.Errorf("usage: bulletfsck [-repair] <image> [image...]")
	}
	exit := 0
	for _, path := range flag.Args() {
		if err := checkImage(path, *repair); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			exit = 1
		}
	}
	if exit != 0 {
		os.Exit(exit)
	}
	return nil
}

func checkImage(path string, repair bool) error {
	var dev disk.Device
	var err error
	if repair {
		dev, err = disk.OpenFile(path, disk.SectorSize)
	} else {
		// Load a read-only copy into RAM so a plain check never touches
		// the image.
		dev, err = loadReadOnly(path)
	}
	if err != nil {
		return err
	}
	defer dev.Close() //nolint:errcheck // process exit

	table, report, err := layout.Load(dev)
	if err != nil {
		return err
	}
	desc := table.Desc()
	fmt.Printf("%s: %d-byte blocks, %d inode-table blocks, %d data blocks\n",
		path, desc.BlockSize, desc.CtrlSize, desc.DataSize)
	fmt.Printf("%s: %d live files, %d free inodes\n", path, report.Live, report.Free)

	var used []alloc.Extent
	table.ForEachUsed(func(_ uint32, ino layout.Inode) {
		used = append(used, alloc.Extent{Start: int64(ino.FirstBlock), Count: ino.Blocks(desc.BlockSize)})
	})
	if a, err := alloc.NewFromUsed(desc.DataSize, used); err == nil {
		st := a.Stats()
		fmt.Printf("%s: %d/%d data blocks used, fragmentation %.1f%%, largest hole %d blocks\n",
			path, st.Used, st.Total, 100*st.Fragmentation(), st.LargestFree)
	}

	if len(report.Problems) == 0 {
		fmt.Printf("%s: clean\n", path)
		return nil
	}
	for _, p := range report.Problems {
		fmt.Printf("%s: inode %d: %s\n", path, p.Inode, p.Reason)
	}
	if !repair {
		return fmt.Errorf("%d problems found (run with -repair to fix)", len(report.Problems))
	}
	for _, p := range report.Problems {
		if err := table.WriteInode(dev, p.Inode); err != nil {
			return fmt.Errorf("repairing inode %d: %w", p.Inode, err)
		}
	}
	if err := dev.Sync(); err != nil {
		return err
	}
	fmt.Printf("%s: %d problems repaired\n", path, len(report.Problems))
	return nil
}

// loadReadOnly copies an image file into a RAM disk.
func loadReadOnly(path string) (disk.Device, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) == 0 || len(raw)%disk.SectorSize != 0 {
		return nil, fmt.Errorf("image size %d is not a multiple of block size %d", len(raw), disk.SectorSize)
	}
	mem, err := disk.NewMem(disk.SectorSize, int64(len(raw)/disk.SectorSize))
	if err != nil {
		return nil, err
	}
	if err := mem.WriteAt(raw, 0); err != nil {
		return nil, err
	}
	return mem, nil
}
