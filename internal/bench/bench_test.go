package bench

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"bulletfs/internal/hwmodel"
)

func TestSizeLabel(t *testing.T) {
	cases := map[int]string{
		1:       "1 byte",
		16:      "16 bytes",
		256:     "256 bytes",
		4096:    "4 Kbytes",
		65536:   "64 Kbytes",
		1 << 20: "1 Mbyte",
	}
	for n, want := range cases {
		if got := SizeLabel(n); got != want {
			t.Errorf("SizeLabel(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestTableFormat(t *testing.T) {
	tab := Table{
		Title:   "T",
		Unit:    "msec",
		Columns: []string{"A", "B"},
		Rows:    []RowT{{Label: "1 byte", Values: []float64{1.5, 2.25}}},
	}
	out := tab.Format()
	for _, want := range []string{"T (msec)", "A", "B", "1 byte", "1.50", "2.25"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q in:\n%s", want, out)
		}
	}
}

func TestCheckFormat(t *testing.T) {
	ok := Check{ID: "X", Claim: "c", Detail: "d", Pass: true}
	if !strings.HasPrefix(ok.Format(), "[PASS]") {
		t.Errorf("Format = %q", ok.Format())
	}
	bad := Check{ID: "X", Claim: "c", Detail: "d"}
	if !strings.HasPrefix(bad.Format(), "[FAIL]") {
		t.Errorf("Format = %q", bad.Format())
	}
}

func TestMeasureUsesVirtualClock(t *testing.T) {
	clock := &hwmodel.Clock{}
	d, err := Measure(clock, func() error {
		clock.Advance(42 * time.Millisecond)
		return nil
	})
	if err != nil || d != 42*time.Millisecond {
		t.Fatalf("Measure = %v, %v", d, err)
	}
}

func TestBulletWorldBasics(t *testing.T) {
	w, err := NewBulletWorld(BulletConfig{Profile: hwmodel.AmoebaProfile()})
	if err != nil {
		t.Fatalf("NewBulletWorld: %v", err)
	}
	c, err := w.Client.Create(w.Port, []byte("hello"), 2)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	got, err := w.Client.Read(c)
	if err != nil || string(got) != "hello" {
		t.Fatalf("Read = %q, %v", got, err)
	}
	if w.Clock.Now() == 0 {
		t.Fatal("operations cost no virtual time")
	}
}

func TestNFSWorldChurn(t *testing.T) {
	w, err := NewNFSWorld(NFSConfig{Profile: hwmodel.SunNFSProfile(), Residency: 30 * time.Second})
	if err != nil {
		t.Fatalf("NewNFSWorld: %v", err)
	}
	root, err := w.Client.Root()
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	if _, err := w.Client.CreateWrite(root, "f", pattern(64<<10)); err != nil {
		t.Fatalf("CreateWrite: %v", err)
	}
	if w.Server.CachedBlocks() == 0 {
		t.Fatal("write-through did not populate the cache")
	}
	// Fast churn call: within the window, nothing evicted.
	w.Churn()
	if w.Server.CachedBlocks() == 0 {
		t.Fatal("in-window churn evicted the cache")
	}
	// Now exceed the window.
	w.Clock.Advance(31 * time.Second)
	w.Churn()
	if w.Server.CachedBlocks() != 0 {
		t.Fatalf("out-of-window churn left %d blocks", w.Server.CachedBlocks())
	}
}

func TestNFSWorldChurnDisabled(t *testing.T) {
	w, err := NewNFSWorld(NFSConfig{Profile: hwmodel.SunNFSProfile(), Residency: -1})
	if err != nil {
		t.Fatalf("NewNFSWorld: %v", err)
	}
	root, err := w.Client.Root()
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	if _, err := w.Client.CreateWrite(root, "f", pattern(8192)); err != nil {
		t.Fatalf("CreateWrite: %v", err)
	}
	w.Clock.Advance(time.Hour)
	w.Churn()
	if w.Server.CachedBlocks() == 0 {
		t.Fatal("disabled churn still evicted")
	}
}

// TestPaperShapeHolds is the headline regression test: the full Fig. 2 /
// Fig. 3 regeneration must keep reproducing the paper's comparison claims.
func TestPaperShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in -short mode")
	}
	f2, err := RunF2()
	if err != nil {
		t.Fatalf("RunF2: %v", err)
	}
	f3, err := RunF3()
	if err != nil {
		t.Fatalf("RunF3: %v", err)
	}
	cmp := RunCompare(f2, f3)
	for _, c := range cmp.Checks {
		if !c.Pass {
			t.Errorf("%s", c.Format())
		}
	}

	// Structural sanity of the tables themselves.
	if len(f2.Delay.Rows) != len(PaperSizes) || len(f3.Delay.Rows) != len(PaperSizes) {
		t.Fatal("tables missing rows")
	}
	// Delay must grow with size within each column.
	for i := 1; i < len(f2.Delay.Rows); i++ {
		if f2.Delay.Rows[i].Values[0] < f2.Delay.Rows[i-1].Values[0] {
			t.Errorf("Bullet read delay not monotonic at %s", f2.Delay.Rows[i].Label)
		}
	}
	// Bullet large reads approach (but cannot exceed) the 10 Mbit wire.
	bw1MB := kbps(1<<20, f2.ReadDelay[1<<20])
	if bw1MB < 400 || bw1MB > 1250 {
		t.Errorf("Bullet 1 MB read bandwidth %.0f KB/s outside the 10 Mbit/s regime", bw1MB)
	}
}

func TestPFactorShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	tab, err := RunPFactor()
	if err != nil {
		t.Fatalf("RunPFactor: %v", err)
	}
	for _, c := range PFactorChecks(tab) {
		if !c.Pass {
			t.Errorf("%s", c.Format())
		}
	}
}

// TestPFactorTableRepeats pins the A2 table against the race it used to
// lose: a replica write the reply does not wait for must never land on
// the shared additive clock inside Measure's window. The quorum runs on
// the request goroutine and the experiment parks the remainder until the
// window has closed, so five runs on several Ps give one table.
func TestPFactorTableRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	var first *Table
	for run := 0; run < 5; run++ {
		tab, err := RunPFactor()
		if err != nil {
			t.Fatalf("RunPFactor: %v", err)
		}
		if run == 0 {
			first = tab
		} else if !reflect.DeepEqual(tab.Rows, first.Rows) {
			t.Fatalf("run %d differs from run 0:\n%s\nvs\n%s", run, tab.Format(), first.Format())
		}
	}
}

func TestFragmentationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	_, checks, err := RunFragmentation()
	if err != nil {
		t.Fatalf("RunFragmentation: %v", err)
	}
	for _, c := range checks {
		if !c.Pass {
			t.Errorf("%s", c.Format())
		}
	}
}

func TestCacheExpShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	_, checks, err := RunCacheExp()
	if err != nil {
		t.Fatalf("RunCacheExp: %v", err)
	}
	for _, c := range checks {
		if !c.Pass {
			t.Errorf("%s", c.Format())
		}
	}
}

func TestTraceShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	tab, checks, err := RunTrace()
	if err != nil {
		t.Fatalf("RunTrace: %v", err)
	}
	for _, c := range checks {
		if !c.Pass {
			t.Errorf("%s", c.Format())
		}
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestWANShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	_, checks, err := RunWAN()
	if err != nil {
		t.Fatalf("RunWAN: %v", err)
	}
	for _, c := range checks {
		if !c.Pass {
			t.Errorf("%s", c.Format())
		}
	}
}

func TestParallelExpShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	tab, checks, err := RunParallelExp()
	if err != nil {
		t.Fatalf("RunParallelExp: %v", err)
	}
	for _, c := range checks {
		if !c.Pass {
			t.Errorf("%s", c.Format())
		}
	}
	if len(tab.Rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(tab.Rows))
	}
}

func TestModernShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	_, checks, err := RunModern()
	if err != nil {
		t.Fatalf("RunModern: %v", err)
	}
	for _, c := range checks {
		if !c.Pass {
			t.Errorf("%s", c.Format())
		}
	}
}

func TestAblationBulletWinsOnSameHardware(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	tab, err := RunAblation()
	if err != nil {
		t.Fatalf("RunAblation: %v", err)
	}
	// At 64 KB and 1 MB, the contiguous whole-file design must beat the
	// block design on identical hardware, in both columns.
	for _, r := range tab.Rows[4:] {
		bulletRead, blockRead := r.Values[0], r.Values[1]
		bulletCre, blockCre := r.Values[2], r.Values[3]
		if bulletRead >= blockRead {
			t.Errorf("%s: bullet read %.1f ms not faster than block read %.1f ms",
				r.Label, bulletRead, blockRead)
		}
		if bulletCre >= blockCre {
			t.Errorf("%s: bullet create %.1f ms not faster than block create %.1f ms",
				r.Label, bulletCre, blockCre)
		}
	}
}
