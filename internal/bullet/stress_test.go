package bullet

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"bulletfs/internal/capability"
)

// TestStressMixedOperationsWithCompaction hammers the engine from many
// goroutines — creates, reads, deletes, modifies — while another
// goroutine repeatedly runs the disk and cache compactors. Every read
// must return exactly what was created; the test fails on any corruption,
// lost file, or deadlock (via the test timeout).
func TestStressMixedOperationsWithCompaction(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test in -short mode")
	}
	w := newWorld(t, 2, Options{CacheBytes: 256 << 10}) // small cache: force evictions

	const workers = 6
	const opsPerWorker = 120
	var wg sync.WaitGroup     // workers only
	var compWg sync.WaitGroup // the compactor
	errc := make(chan error, workers+1)

	stop := make(chan struct{})
	compWg.Add(1)
	go func() { // the 3 a.m. compactor, running at 3 p.m.
		defer compWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := w.srv.CompactDisk(); err != nil {
				errc <- err
				return
			}
			w.srv.CompactCache()
		}
	}()

	for id := 0; id < workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			type file struct {
				cap  capability.Capability
				data []byte
			}
			var mine []file
			for op := 0; op < opsPerWorker; op++ {
				switch {
				case len(mine) < 4 || op%5 == 0:
					size := (id*131+op*977)%6000 + 1
					data := bytes.Repeat([]byte{byte(id*16 + op%16 + 1)}, size)
					c, err := w.srv.Create(data, (op % 3)) // all p-factors
					if errors.Is(err, ErrDiskFull) {
						continue
					}
					if err != nil {
						errc <- err
						return
					}
					mine = append(mine, file{cap: c, data: data})
				case op%5 == 1 && len(mine) > 0:
					f := mine[op%len(mine)]
					nc, err := settle(w.srv.Append(nil, nil, f.cap, []byte{0xEE}, 1))
					if errors.Is(err, ErrDiskFull) {
						continue
					}
					if err != nil {
						errc <- err
						return
					}
					mine = append(mine, file{cap: nc, data: append(append([]byte{}, f.data...), 0xEE)})
				case op%5 == 2 && len(mine) > 2:
					i := op % len(mine)
					if err := w.srv.Delete(nil, nil, mine[i].cap); err != nil {
						errc <- err
						return
					}
					mine = append(mine[:i], mine[i+1:]...)
				default:
					f := mine[op%len(mine)]
					got, err := w.srv.Read(f.cap)
					if err != nil {
						errc <- err
						return
					}
					if !bytes.Equal(got, f.data) {
						errc <- errors.New("read returned corrupted data under stress")
						return
					}
				}
			}
			// Final verification of everything this worker still owns.
			for _, f := range mine {
				got, err := w.srv.Read(f.cap)
				if err != nil || !bytes.Equal(got, f.data) {
					errc <- errors.New("file corrupted at end of stress run")
					return
				}
			}
		}(id)
	}

	// Wait for the workers, then stop the compactor.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case err := <-errc:
		close(stop)
		t.Fatal(err)
	case <-done:
	}
	close(stop)
	compWg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if n := w.srv.CacheStats().Compactions; n == 0 {
		t.Fatal("the cache was never compacted: the race this test is for did not run")
	}

	// The engine survives a restart after all that.
	w.srv.Sync()
	srv2, err := New(w.set, Options{Port: w.srv.Port(), CacheBytes: 1 << 20})
	if err != nil {
		t.Fatalf("restart after stress: %v", err)
	}
	if srv2.Live() < 0 {
		t.Fatal("unreachable")
	}
	t.Logf("stress done: %d live files, stats %+v", srv2.Live(), w.srv.Stats())
}
