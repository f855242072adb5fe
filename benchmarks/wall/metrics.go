package main

// metricDef names one reported metric. BENCHMARK.json at the repository
// root lists the same names, units and directions (a test compares the
// two) and owns the bounds.
type metricDef struct {
	name, unit, better string
}

// endToEnd is what a user of the server sees. All but set-up time are
// measured against the null server in the same run, because absolute
// wall-clock numbers do not repeat on a shared 2-vCPU VM.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_vs_null", "ratio", "higher"},
	{"server_cpu_vs_null", "ratio", "lower"},
	{"server_rss_mb", "MB", "lower"},
}

// perLayer is informational, never gated; layer = package name.
var perLayer = []metricDef{
	{"client.ops_per_s", "1/s", "higher"},
	{"client.mb_per_s", "MB/s", "higher"},
	{"client.lat_p50_us", "us", "lower"},
	{"client.lat_p95_us", "us", "lower"},
	{"client.lat_p99_us", "us", "lower"},
	{"client.null_ops_per_s", "1/s", "higher"},
	{"client.self_us_per_op", "us/op", "lower"},
	{"rpc.self_us_per_op", "us/op", "lower"},
	{"rpc.bytes_out_per_op", "B/op", "lower"},
	{"rpc.owned_reply_ratio", "ratio", "higher"},
	{"rpc.dedup_copied_bytes_per_op", "B/op", "lower"},
	{"rpc.slow_traces", "count", "lower"},
	{"bullet.self_us_per_op", "us/op", "lower"},
	{"bullet.read_copies_per_op", "1/op", "lower"},
	{"bullet.fault_merges_per_op", "1/op", "lower"},
	{"bullet.residual_us_per_op", "us/op", "lower"},
	{"cache.hit_ratio", "ratio", "higher"},
	{"cache.insertions_per_op", "1/op", "lower"},
	{"cache.evictions_per_op", "1/op", "lower"},
	{"cache.pin_release_ns", "ns", "lower"},
	{"cache.insert_us_per_mib", "us/MiB", "lower"},
	{"capability.verify_ns", "ns", "lower"},
	{"alloc.alloc_free_ns", "ns", "lower"},
	{"alloc.fragmentation_pct", "%", "lower"},
	{"layout.write_inode_us", "us", "lower"},
	{"layout.boot_scan_s", "s", "lower"},
	{"disk.self_us_per_op", "us/op", "lower"},
	{"disk.reads_per_op", "1/op", "lower"},
	{"disk.read_bytes_per_op", "B/op", "lower"},
	{"disk.writes_per_op", "1/op", "lower"},
	{"disk.write_bytes_per_user_byte", "ratio", "lower"},
	{"disk.syncs_per_op", "1/op", "lower"},
	{"disk.background_us_per_op", "us/op", "lower"},
	{"proc.allocs_per_op", "1/op", "lower"},
	{"proc.alloc_bytes_per_op", "B/op", "lower"},
	{"proc.gc_cycles", "count", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

var units = func() map[string]string {
	m := make(map[string]string)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			m[d.name] = d.unit
		}
	}
	return m
}()
