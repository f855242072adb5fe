package bulletfs_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"bulletfs/internal/bullet"
	"bulletfs/internal/bulletsvc"
	"bulletfs/internal/client"
	"bulletfs/internal/disk"
	"bulletfs/internal/rpc"
	"bulletfs/internal/scrub"
	"bulletfs/internal/stats"
	"bulletfs/internal/trace"
)

var updateGoldens = flag.Bool("update", false, "rewrite golden files instead of comparing")

// TestMetricNamesStable pins the full metric namespace of a fully-wired
// server against testdata/metric_names.txt. Dashboards, alert rules and
// the Prometheus scrape all key on these names, so a rename or removal
// is a breaking change that must be deliberate: if this test fails,
// either revert the name change, or — if the change is intended —
// update the golden (`go test -run TestMetricNamesStable -update .`)
// AND the namespace table in docs/OBSERVABILITY.md together.
func TestMetricNamesStable(t *testing.T) {
	// A deterministic world: two replicas, every optional subsystem
	// attached, and one request per RPC op whose per-op metrics the
	// golden covers (rpc.<op>.* instruments register lazily).
	var devs []disk.Device
	for i := 0; i < 2; i++ {
		mem, err := disk.NewMem(512, (8<<20)/512)
		if err != nil {
			t.Fatalf("NewMem: %v", err)
		}
		devs = append(devs, mem)
	}
	set, err := disk.NewReplicaSet(devs...)
	if err != nil {
		t.Fatalf("NewReplicaSet: %v", err)
	}
	if err := bullet.Format(set, 100); err != nil {
		t.Fatalf("Format: %v", err)
	}
	engine, err := bullet.New(set, bullet.Options{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatalf("bullet.New: %v", err)
	}
	defer engine.Close() //nolint:errcheck // test teardown

	recorder := trace.NewRecorder()
	defer recorder.Close()
	scrubber := scrub.New(engine, scrub.Config{Interval: 0})
	scrubber.AttachMetrics(engine.Metrics())
	collector := stats.NewCollector(engine.Metrics(), time.Hour, 8)
	defer collector.Close()

	mux := rpc.NewMux(0)
	mux.AttachMetrics(engine.Metrics(), bulletsvc.CommandName)
	mux.AttachRecorder(recorder)
	svc := bulletsvc.New(engine)
	svc.AttachRecorder(recorder)
	svc.AttachScrubber(scrubber)
	svc.AttachCollector(collector)
	adm := bulletsvc.NewAdmission(64)
	adm.AttachMetrics(engine.Metrics())
	svc.AttachAdmission(adm)
	svc.Register(mux)

	cl := client.New(rpc.NewLocal(mux), client.WithTraceIDs())
	cp, err := cl.Create(engine.Port(), []byte("golden"), 1)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := cl.Read(cp); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if _, err := cl.Size(cp); err != nil {
		t.Fatalf("Size: %v", err)
	}
	if _, err := cl.Stats(cp); err != nil {
		t.Fatalf("Stats: %v", err)
	}
	// Two ticks so the derived-update path has run before snapshotting.
	base := time.Unix(1_700_000_000, 0)
	collector.Tick(base)
	collector.Tick(base.Add(time.Second))

	snap := engine.Metrics().Snapshot()
	var lines []string
	for name := range snap.Counters {
		lines = append(lines, "counter "+name)
	}
	for name := range snap.Gauges {
		lines = append(lines, "gauge "+name)
	}
	for name := range snap.Histograms {
		lines = append(lines, "histogram "+name)
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"

	golden := filepath.Join("testdata", "metric_names.txt")
	if *updateGoldens {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatalf("rewriting golden: %v", err)
		}
		return
	}
	wantBytes, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden: %v (run with -update to create it)", err)
	}
	want := string(wantBytes)
	if got == want {
		return
	}
	t.Errorf("metric namespace changed:\n%s\nMetric names are a public interface (dashboards, alerts, the "+
		"Prometheus scrape). If this rename/removal is intentional, update the golden "+
		"(go test -run TestMetricNamesStable -update .) and the namespace table in docs/OBSERVABILITY.md; "+
		"otherwise keep the old name.", diffLines(want, got))
}

// diffLines is a minimal set-difference report: lines only in the
// golden (removed) and only in the snapshot (added).
func diffLines(want, got string) string {
	wantSet := make(map[string]bool)
	for _, l := range strings.Split(strings.TrimSpace(want), "\n") {
		wantSet[l] = true
	}
	gotSet := make(map[string]bool)
	for _, l := range strings.Split(strings.TrimSpace(got), "\n") {
		gotSet[l] = true
	}
	var b strings.Builder
	for _, l := range strings.Split(strings.TrimSpace(want), "\n") {
		if !gotSet[l] {
			fmt.Fprintf(&b, "  removed: %s\n", l)
		}
	}
	for _, l := range strings.Split(strings.TrimSpace(got), "\n") {
		if !wantSet[l] {
			fmt.Fprintf(&b, "  added:   %s\n", l)
		}
	}
	if b.Len() == 0 {
		return "  (ordering or duplication change)"
	}
	return strings.TrimRight(b.String(), "\n")
}
