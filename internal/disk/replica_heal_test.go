package disk

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"sync"
	"testing"
	"time"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcVerify returns a ReadVerified callback accepting exactly want.
func crcVerify(want uint32) func([]byte) bool {
	return func(p []byte) bool { return crc32.Checksum(p, castagnoli) == want }
}

// ladderOutcome is what a run of reads leaves in a set's counters.
type ladderOutcome struct {
	Reads, ChecksumErrors, Repairs []int64
	Alive                          []bool
	Promotions                     int64
}

func outcomeOf(s *ReplicaSet) ladderOutcome {
	var o ladderOutcome
	for i := 0; i < s.N(); i++ {
		o.Reads = append(o.Reads, s.Reads(i))
		o.ChecksumErrors = append(o.ChecksumErrors, s.ChecksumErrors(i))
		o.Repairs = append(o.Repairs, s.Repairs(i))
		o.Alive = append(o.Alive, s.Alive(i))
	}
	o.Promotions = s.Promotions()
	return o
}

// onBothLadders runs body on a fresh n-replica set twice: with the
// fail-stop order, and with breakers on over a virtual clock. Verify,
// failover, self-heal and quarantine are one code path whatever the
// order, so both runs must leave the same counters behind.
func onBothLadders(t *testing.T, n int, body func(t *testing.T, s *ReplicaSet, faulty []*FaultyDisk)) {
	t.Helper()
	var got [2]ladderOutcome
	for k, name := range []string{"breakers=off", "breakers=on"} {
		t.Run(name, func(t *testing.T) {
			s, faulty := newSet(t, n)
			if k == 1 {
				s.EnableBreakers(BreakerConfig{Now: (&vclock{}).Now})
			}
			body(t, s, faulty)
			got[k] = outcomeOf(s)
		})
	}
	if !t.Failed() && !reflect.DeepEqual(got[0], got[1]) {
		t.Fatalf("breakers off left %+v, breakers on %+v", got[0], got[1])
	}
}

func TestReadVerifiedFailoverAndSelfHeal(t *testing.T) {
	onBothLadders(t, 3, func(t *testing.T, s *ReplicaSet, _ []*FaultyDisk) {
		in := []byte("silent corruption is the failure mode checksums exist for")
		writeAll(t, s, in, 1024)
		sum := crc32.Checksum(in, castagnoli)

		// Rot the stored bytes on the main replica only.
		bad := bytes.Repeat([]byte{0xEE}, len(in))
		if err := s.Device(0).WriteAt(bad, 1024); err != nil {
			t.Fatalf("corrupting replica 0: %v", err)
		}

		out := make([]byte, len(in))
		if err := s.ReadVerified(nil, nil, out, 1024, crcVerify(sum)); err != nil {
			t.Fatalf("ReadVerified: %v", err)
		}
		if !bytes.Equal(out, in) {
			t.Fatalf("read %q, want %q", out, in)
		}
		if !s.Alive(0) {
			t.Fatal("one checksum error quarantined the replica")
		}
		if got := s.ChecksumErrors(0); got != 1 {
			t.Fatalf("ChecksumErrors(0) = %d, want 1", got)
		}
		if got := s.Repairs(0); got != 1 {
			t.Fatalf("Repairs(0) = %d, want 1", got)
		}
		// The bad extent was rewritten in place: replica 0 now serves the
		// verified bytes itself.
		healed := make([]byte, len(in))
		if err := s.Device(0).ReadAt(healed, 1024); err != nil {
			t.Fatalf("re-reading replica 0: %v", err)
		}
		if !bytes.Equal(healed, in) {
			t.Fatalf("replica 0 still holds %q after self-heal", healed)
		}
		// And a second verified read is served by the main with no failover.
		before := s.Reads(0)
		if err := s.ReadVerified(nil, nil, out, 1024, crcVerify(sum)); err != nil {
			t.Fatalf("second ReadVerified: %v", err)
		}
		if s.Reads(0) != before+1 {
			t.Fatal("healed main did not serve the follow-up read")
		}
	})
}

func TestReadVerifiedAllReplicasCorrupt(t *testing.T) {
	onBothLadders(t, 2, func(t *testing.T, s *ReplicaSet, _ []*FaultyDisk) {
		in := []byte("every copy rotted")
		writeAll(t, s, in, 512)
		out := make([]byte, len(in))
		err := s.ReadVerified(nil, nil, out, 512, func([]byte) bool { return false })
		if !errors.Is(err, ErrNoReplica) || !errors.Is(err, ErrChecksum) {
			t.Fatalf("err = %v, want ErrNoReplica wrapping ErrChecksum", err)
		}
		// Unverifiable data must not demote anyone by itself (budget is 8).
		if s.AliveCount() != 2 {
			t.Fatalf("alive = %d after mismatches, want 2", s.AliveCount())
		}
	})
}

func TestChecksumErrorBudgetQuarantine(t *testing.T) {
	onBothLadders(t, 3, func(t *testing.T, s *ReplicaSet, faulty []*FaultyDisk) {
		s.SetErrorBudget(3)
		in := []byte("repeat offender")
		writeAll(t, s, in, 0)
		sum := crc32.Checksum(in, castagnoli)

		// Replica 0 lies on every read from now on (stored bytes stay good,
		// so self-heal rewrites cannot cure it).
		faulty[0].CorruptNextReads(1000)

		out := make([]byte, len(in))
		for i := 0; i < 3; i++ {
			if err := s.ReadVerified(nil, nil, out, 0, crcVerify(sum)); err != nil {
				t.Fatalf("ReadVerified %d: %v", i, err)
			}
			if !bytes.Equal(out, in) {
				t.Fatalf("read %d returned %q", i, out)
			}
		}
		if s.Alive(0) {
			t.Fatal("replica 0 alive after exhausting its error budget")
		}
		if got := s.ChecksumErrors(0); got != 3 {
			t.Fatalf("ChecksumErrors(0) = %d, want 3", got)
		}
		if s.Main() != 1 {
			t.Fatalf("main = %d after quarantine, want 1", s.Main())
		}
		if got := s.Promotions(); got != 1 {
			t.Fatalf("Promotions = %d, want 1", got)
		}
		// Quarantined replicas serve nothing; the survivors do.
		if err := s.ReadVerified(nil, nil, out, 0, crcVerify(sum)); err != nil {
			t.Fatalf("post-quarantine read: %v", err)
		}
	})
}

func TestPromotionDuringInFlightReads(t *testing.T) {
	s, faulty := newSet(t, 3)
	in := []byte("reads must survive a promotion")
	writeAll(t, s, in, 2048)

	// Hammer reads from several goroutines while the main dies mid-storm.
	// Every read must succeed: the failover ladder retries siblings within
	// one call, so the demotion is invisible to clients. Readers keep
	// going until the promotion has been observed, so reads are
	// guaranteed to be in flight across it.
	const readers = 8
	errs := make(chan error, readers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]byte, len(in))
			for i := 0; ; i++ {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				if err := s.ReadAt(out, 2048); err != nil {
					errs <- fmt.Errorf("read %d: %w", i, err)
					return
				}
				if !bytes.Equal(out, in) {
					errs <- fmt.Errorf("read %d returned %q", i, out)
					return
				}
			}
		}()
	}
	faulty[0].Fault()
	deadline := time.After(10 * time.Second)
	for s.Promotions() == 0 {
		select {
		case <-deadline:
			close(stop)
			t.Fatal("promotion never observed")
		default:
			time.Sleep(50 * time.Microsecond)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if s.Alive(0) {
		t.Fatal("faulted main still alive")
	}
	if got := s.Promotions(); got != 1 {
		t.Fatalf("Promotions = %d, want 1", got)
	}
	if s.Main() == 0 {
		t.Fatal("main not promoted away from the dead replica")
	}
}

// bigSet builds a replica set over larger disks so recovery copies take
// long enough to race against.
func bigSet(t *testing.T, n int, blocks int64) (*ReplicaSet, []*FaultyDisk, []*MemDisk) {
	t.Helper()
	devs := make([]Device, n)
	faulty := make([]*FaultyDisk, n)
	mems := make([]*MemDisk, n)
	for i := range devs {
		mems[i] = newMem(t, 512, blocks)
		faulty[i] = NewFaulty(mems[i])
		devs[i] = faulty[i]
	}
	s, err := NewReplicaSet(devs...)
	if err != nil {
		t.Fatalf("NewReplicaSet: %v", err)
	}
	return s, faulty, mems
}

func TestConcurrentWritesDuringRecover(t *testing.T) {
	const blocks = 4096 // 2 MB per replica
	s, faulty, mems := bigSet(t, 3, blocks)

	seed := bytes.Repeat([]byte("seed data "), 51)
	writeAll(t, s, seed, 0)

	// Kill replica 2 and let the set notice.
	faulty[2].Fault()
	writeAll(t, s, []byte("degraded-mode write"), 4096)
	if s.AliveCount() != 2 {
		t.Fatalf("alive = %d, want 2", s.AliveCount())
	}
	faulty[2].Heal()

	// Writers keep committing to distinct extents while the recovery copy
	// runs. Every one of these writes must end up on replica 2, whether
	// the bulk copy, a catch-up pass, or the mirrored fan-out carried it.
	const writers, perWriter = 4, 50
	var wg sync.WaitGroup
	stop := make(chan struct{})
	werrs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				payload := []byte(fmt.Sprintf("writer %d iteration %03d", w, i))
				off := int64(8192 + (w*perWriter+i)*512)
				err := commit(s, nil, nil, s.N(), func(_ int, dev Device) error {
					return dev.WriteAt(payload, off)
				}, nil)
				if err != nil {
					werrs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
				select {
				case <-stop:
					werrs <- nil
					return
				default:
				}
			}
			werrs <- nil
		}()
	}

	if err := s.Recover(2); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	close(stop)
	wg.Wait()
	close(werrs)
	for err := range werrs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Post-recovery writes fan out to replica 2 directly.
	writeAll(t, s, []byte("after recovery"), 1024*512)
	s.Drain()

	if s.AliveCount() != 3 {
		t.Fatalf("alive = %d after recover, want 3", s.AliveCount())
	}
	if got := s.Recoveries(); got != 1 {
		t.Fatalf("Recoveries = %d, want 1", got)
	}
	if s.Recovering() != -1 {
		t.Fatalf("Recovering = %d after completion, want -1", s.Recovering())
	}
	if !bytes.Equal(mems[0].Snapshot(), mems[2].Snapshot()) {
		t.Fatal("replica 2 diverges from replica 0 after online recovery")
	}
	if !bytes.Equal(mems[0].Snapshot(), mems[1].Snapshot()) {
		t.Fatal("replica 1 diverges from replica 0")
	}
}

// slowDisk delays every write, stretching a recovery copy out long enough
// for the test to observe the set staying responsive.
type slowDisk struct {
	Device
	delay time.Duration
}

func (d *slowDisk) WriteAt(p []byte, off int64) error {
	time.Sleep(d.delay)
	return d.Device.WriteAt(p, off)
}

func TestRecoverDoesNotBlockTheSet(t *testing.T) {
	const blocks = 2048
	mems := make([]*MemDisk, 3)
	faulty := make([]*FaultyDisk, 3)
	devs := make([]Device, 3)
	for i := range devs {
		mems[i] = newMem(t, 512, blocks)
		faulty[i] = NewFaulty(mems[i])
		devs[i] = faulty[i]
	}
	// Replica 2's writes crawl: the bulk copy (2048/64 = 32 chunks) takes
	// at least 32ms while reads and commits should take microseconds.
	devs[2] = &slowDisk{Device: faulty[2], delay: time.Millisecond}
	s, err := NewReplicaSet(devs...)
	if err != nil {
		t.Fatalf("NewReplicaSet: %v", err)
	}
	in := []byte("stay responsive")
	writeAll(t, s, in, 0)
	faulty[2].Fault()
	writeAll(t, s, in, 512) // set notices the death
	faulty[2].Heal()

	recDone := make(chan error, 1)
	go func() { recDone <- s.Recover(2) }()

	// Wait for the recovery to actually start.
	deadline := time.After(5 * time.Second)
	for s.Recovering() != 2 {
		select {
		case <-deadline:
			t.Fatal("recovery never started")
		default:
			time.Sleep(100 * time.Microsecond)
		}
	}

	// Mid-recovery, reads and quorum writes must complete promptly. The
	// mirrored write to the slow replica continues in the background; the
	// caller's quorum is over the live replicas only.
	out := make([]byte, len(in))
	start := time.Now()
	if err := s.ReadAt(out, 0); err != nil {
		t.Fatalf("read during recovery: %v", err)
	}
	if err := commit(s, nil, nil, 2, func(_ int, dev Device) error {
		return dev.WriteAt([]byte("committed mid-recovery"), 1024)
	}, nil); err != nil {
		t.Fatalf("commit during recovery: %v", err)
	}
	elapsed := time.Since(start)
	if s.Recovering() != 2 && elapsed > 20*time.Millisecond {
		t.Logf("note: recovery finished before the mid-recovery ops ran")
	}
	if elapsed > 10*time.Second {
		t.Fatalf("ops during recovery took %v", elapsed)
	}

	if err := <-recDone; err != nil {
		t.Fatalf("Recover: %v", err)
	}
	s.Drain()
	if !bytes.Equal(mems[0].Snapshot(), mems[2].Snapshot()) {
		t.Fatal("slow replica diverges after recovery")
	}
}

func TestRecoverWhileRecoveringFails(t *testing.T) {
	mems := make([]*MemDisk, 3)
	faulty := make([]*FaultyDisk, 3)
	devs := make([]Device, 3)
	for i := range devs {
		mems[i] = newMem(t, 512, 2048)
		faulty[i] = NewFaulty(mems[i])
		devs[i] = faulty[i]
	}
	devs[2] = &slowDisk{Device: faulty[2], delay: time.Millisecond}
	s, err := NewReplicaSet(devs...)
	if err != nil {
		t.Fatalf("NewReplicaSet: %v", err)
	}
	faulty[1].Fault()
	faulty[2].Fault()
	_ = s.ReadAt(make([]byte, 1), 0) // notice neither death (main is 0)
	_ = commit(s, nil, nil, 3, func(_ int, dev Device) error { return dev.WriteAt([]byte("x"), 0) }, nil)
	faulty[1].Heal()
	faulty[2].Heal()

	recDone := make(chan error, 1)
	go func() { recDone <- s.Recover(2) }()
	deadline := time.After(5 * time.Second)
	for s.Recovering() != 2 {
		select {
		case <-deadline:
			t.Fatal("recovery never started")
		default:
			time.Sleep(100 * time.Microsecond)
		}
	}
	if err := s.Recover(1); !errors.Is(err, ErrRecovering) {
		t.Fatalf("second Recover err = %v, want ErrRecovering", err)
	}
	if err := <-recDone; err != nil {
		t.Fatalf("Recover(2): %v", err)
	}
	// With the first done, the second target recovers fine.
	if err := s.Recover(1); err != nil {
		t.Fatalf("Recover(1): %v", err)
	}
	if s.AliveCount() != 3 {
		t.Fatalf("alive = %d, want 3", s.AliveCount())
	}
}

func TestRecoverAliveReplicaIsNoOp(t *testing.T) {
	s, _ := newSet(t, 2)
	if err := s.Recover(1); err != nil {
		t.Fatalf("Recover of a live replica: %v", err)
	}
	if got := s.Recoveries(); got != 0 {
		t.Fatalf("Recoveries = %d for a no-op, want 0", got)
	}
}

func TestFaultyCorruptionModes(t *testing.T) {
	mem := newMem(t, 512, 8)
	d := NewFaulty(mem)
	in := []byte("pristine bytes")
	if err := d.WriteAt(in, 0); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}

	// Read corruption: the returned copy lies, the stored bytes do not.
	d.CorruptNextReads(1)
	out := make([]byte, len(in))
	if err := d.ReadAt(out, 0); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if bytes.Equal(out, in) {
		t.Fatal("CorruptNextReads returned clean bytes")
	}
	if err := d.ReadAt(out, 0); err != nil || !bytes.Equal(out, in) {
		t.Fatalf("second read = (%q, %v), want clean", out, err)
	}

	// Write corruption: the device acknowledges bytes it mangled, and the
	// caller's buffer is untouched.
	d.CorruptNextWrites(1)
	orig := append([]byte(nil), in...)
	if err := d.WriteAt(in, 512); err != nil {
		t.Fatalf("corrupt WriteAt: %v", err)
	}
	if !bytes.Equal(in, orig) {
		t.Fatal("CorruptNextWrites mutated the caller's buffer")
	}
	if err := d.ReadAt(out, 512); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if bytes.Equal(out, in) {
		t.Fatal("CorruptNextWrites stored clean bytes")
	}
	// Heal clears the armed corruption.
	d.CorruptNextReads(5)
	d.Heal()
	if err := d.ReadAt(out, 0); err != nil || !bytes.Equal(out, in) {
		t.Fatalf("post-Heal read = (%q, %v), want clean", out, err)
	}
}

func TestReplicaHealthSnapshot(t *testing.T) {
	s, faulty := newSet(t, 3)
	in := []byte("health check")
	writeAll(t, s, in, 0)
	faulty[2].Fault()
	writeAll(t, s, in, 512)
	s.Drain()

	h := s.Health()
	if len(h) != 3 {
		t.Fatalf("health entries = %d, want 3", len(h))
	}
	if !h[0].Alive || !h[0].Main || h[0].Writes == 0 {
		t.Fatalf("replica 0 health = %+v", h[0])
	}
	if h[2].Alive || h[2].Errors == 0 {
		t.Fatalf("replica 2 health = %+v", h[2])
	}
	if h[2].Recovering {
		t.Fatalf("replica 2 claims recovery: %+v", h[2])
	}
}
