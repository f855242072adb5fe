// Command bulletctl is the command-line client of a bulletd server.
//
//	bulletctl -server localhost:7001 put notes.txt     # prints a capability
//	bulletctl -server localhost:7001 get <capability>  # writes contents to stdout
//	bulletctl -server localhost:7001 get -range 64:128 <capability>  # 128 bytes from offset 64 ("64:" = to EOF)
//	bulletctl -server localhost:7001 get -stream <capability>        # chunked READSTREAM download
//	bulletctl -server localhost:7001 size <capability>
//	bulletctl -server localhost:7001 append <capability> more.txt
//	bulletctl -server localhost:7001 del <capability>
//	bulletctl -server localhost:7001 stat
//	bulletctl -server localhost:7001 stats [-json] <capability>
//	bulletctl -server localhost:7001 trace [-slow] [-json] <capability>
//	bulletctl -server localhost:7001 top [-n updates] [-json] <capability>  # live telemetry (WATCH)
//	bulletctl -server localhost:7001 compact
//	bulletctl -server localhost:7001 health [-json] <capability>
//	bulletctl -server localhost:7001 scrub <admin-capability>
//	bulletctl -server localhost:7001 recover <admin-capability> <replica>
//	bulletctl restrict <capability> read,delete        # offline, no server
//
// Exit codes distinguish failure classes for scripts: 1 for generic
// errors, 2 when the server rejected the capability (bad check field or
// missing rights), 3 when the transport failed before a reply arrived.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"bulletfs/internal/bulletsvc"
	"bulletfs/internal/capability"
	"bulletfs/internal/client"
	"bulletfs/internal/rpc"
	"bulletfs/internal/stats"
	"bulletfs/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bulletctl:", err)
		os.Exit(exitCode(err))
	}
}

// exitCode classifies an error for scripts: capability rejections (the
// server answered and said no) are distinct from transport failures (no
// answer at all).
func exitCode(err error) int {
	switch {
	case errors.Is(err, capability.ErrBadCheck), errors.Is(err, capability.ErrBadRights):
		return 2
	case errors.Is(err, client.ErrTransport):
		return 3
	default:
		return 1
	}
}

func usage() error {
	return fmt.Errorf("usage: bulletctl [-server addr] [-port name] [-pfactor n] <put|get|size|append|del|stat|stats|trace|top|compact|health|scrub|recover|restrict> args...")
}

func run() error {
	var (
		server  = flag.String("server", "localhost:7001", "bulletd TCP address")
		port    = flag.String("port", "bullet", "service name of the server's capability port")
		pfactor = flag.Int("pfactor", 1, "paranoia factor for put/append (0 = reply before disk)")
	)
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		return usage()
	}

	// restrict works offline.
	if args[0] == "restrict" {
		if len(args) != 3 {
			return fmt.Errorf("usage: bulletctl restrict <capability> <right,right,...>")
		}
		return restrict(args[1], args[2])
	}

	p := capability.PortFromString(*port)
	resolver := rpc.StaticResolver(map[capability.Port]string{p: *server})
	tr := rpc.NewTCPTransport(resolver, 30*time.Second)
	defer tr.Close() //nolint:errcheck // process exit
	// Trace IDs cost 12 bytes per request and make every bulletctl
	// operation findable in the server's flight recorder by ID.
	cl := client.New(tr, client.WithTraceIDs())

	switch args[0] {
	case "put":
		if len(args) != 2 {
			return fmt.Errorf("usage: bulletctl put <file>")
		}
		data, err := readInput(args[1])
		if err != nil {
			return err
		}
		c, err := cl.Create(p, data, *pfactor)
		if err != nil {
			return err
		}
		fmt.Println(c)
		return nil

	case "get":
		getUsage := fmt.Errorf("usage: bulletctl get [-stream] [-range off:n] <capability>")
		var streamGet bool
		var rangeSpec string
		rest := args[1:]
		for len(rest) > 0 && strings.HasPrefix(rest[0], "-") {
			switch {
			case rest[0] == "-stream":
				streamGet = true
				rest = rest[1:]
			case rest[0] == "-range" && len(rest) >= 2:
				rangeSpec = rest[1]
				rest = rest[2:]
			default:
				return getUsage
			}
		}
		if len(rest) != 1 {
			return getUsage
		}
		c, err := capability.Parse(rest[0])
		if err != nil {
			return err
		}
		switch {
		case rangeSpec != "":
			off, n, err := parseRange(rangeSpec)
			if err != nil {
				return err
			}
			data, err := cl.ReadRange(c, off, n)
			if err != nil {
				return err
			}
			_, err = os.Stdout.Write(data)
			return err
		case streamGet:
			// Chunked READSTREAM: frames are written to stdout as they
			// arrive, so the file is never buffered whole in this process.
			_, err := cl.ReadStream(c, 0, os.Stdout)
			return err
		default:
			data, err := cl.Read(c)
			if err != nil {
				return err
			}
			_, err = os.Stdout.Write(data)
			return err
		}

	case "size":
		c, err := parseCap(args)
		if err != nil {
			return err
		}
		n, err := cl.Size(c)
		if err != nil {
			return err
		}
		fmt.Println(n)
		return nil

	case "append":
		if len(args) != 3 {
			return fmt.Errorf("usage: bulletctl append <capability> <file>")
		}
		c, err := capability.Parse(args[1])
		if err != nil {
			return err
		}
		data, err := readInput(args[2])
		if err != nil {
			return err
		}
		nc, err := cl.Append(c, data, *pfactor)
		if err != nil {
			return err
		}
		fmt.Println(nc)
		return nil

	case "del":
		c, err := parseCap(args)
		if err != nil {
			return err
		}
		return cl.Delete(c)

	case "stat":
		st, err := cl.Stat(p)
		if err != nil {
			return err
		}
		printStats(st)
		return nil

	case "stats":
		// bulletctl stats [-json] <capability>
		var asJSON bool
		var capStr string
		for _, a := range args[1:] {
			if a == "-json" || a == "--json" {
				asJSON = true
			} else if capStr == "" {
				capStr = a
			} else {
				return fmt.Errorf("usage: bulletctl stats [-json] <capability>")
			}
		}
		if capStr == "" {
			return fmt.Errorf("usage: bulletctl stats [-json] <capability> (any readable file's capability authorizes the query)")
		}
		c, err := capability.Parse(capStr)
		if err != nil {
			return err
		}
		snap, err := cl.Stats(c)
		if err != nil {
			return err
		}
		if asJSON {
			body, err := snap.MarshalIndent()
			if err != nil {
				return err
			}
			fmt.Println(string(body))
			return nil
		}
		printSnapshot(snap)
		return nil

	case "trace":
		// bulletctl trace [-slow] [-json] <capability>
		var slow, asJSON bool
		var capStr string
		for _, a := range args[1:] {
			switch {
			case a == "-slow" || a == "--slow":
				slow = true
			case a == "-json" || a == "--json":
				asJSON = true
			case capStr == "":
				capStr = a
			default:
				return fmt.Errorf("usage: bulletctl trace [-slow] [-json] <capability>")
			}
		}
		if capStr == "" {
			return fmt.Errorf("usage: bulletctl trace [-slow] [-json] <capability> (any readable file's capability authorizes the query)")
		}
		c, err := capability.Parse(capStr)
		if err != nil {
			return err
		}
		traces, err := cl.Traces(c, slow)
		if err != nil {
			return err
		}
		if asJSON {
			body, err := json.MarshalIndent(traces, "", "  ")
			if err != nil {
				return err
			}
			fmt.Println(string(body))
			return nil
		}
		if len(traces) == 0 {
			fmt.Println("no traces recorded")
			return nil
		}
		for i := range traces {
			if i > 0 {
				fmt.Println()
			}
			trace.RenderTree(os.Stdout, &traces[i])
		}
		return nil

	case "top":
		// bulletctl top [-n updates] [-json] <capability>
		var asJSON bool
		var maxUpdates uint64
		var capStr string
		rest := args[1:]
		for len(rest) > 0 {
			switch {
			case rest[0] == "-json" || rest[0] == "--json":
				asJSON = true
				rest = rest[1:]
			case (rest[0] == "-n" || rest[0] == "--n") && len(rest) >= 2:
				n, err := strconv.ParseUint(rest[1], 10, 64)
				if err != nil {
					return fmt.Errorf("bad -n %q", rest[1])
				}
				maxUpdates = n
				rest = rest[2:]
			case capStr == "":
				capStr = rest[0]
				rest = rest[1:]
			default:
				return fmt.Errorf("usage: bulletctl top [-n updates] [-json] <capability>")
			}
		}
		if capStr == "" {
			return fmt.Errorf("usage: bulletctl top [-n updates] [-json] <capability> (any readable file's capability authorizes the watch)")
		}
		c, err := capability.Parse(capStr)
		if err != nil {
			return err
		}
		// The watch stream runs until interrupted; the default transport's
		// 30s transaction deadline would kill it, so top uses its own
		// deadline-free connection.
		watchTr := rpc.NewTCPTransport(resolver, 0)
		defer watchTr.Close() //nolint:errcheck // process exit
		return runTop(client.New(watchTr, client.WithTraceIDs()), c, maxUpdates, asJSON)

	case "compact":
		if err := cl.CompactDisk(p); err != nil {
			return err
		}
		fmt.Println("disk compacted")
		return nil

	case "health":
		// bulletctl health [-json] <capability>
		var asJSON bool
		var capStr string
		for _, a := range args[1:] {
			if a == "-json" || a == "--json" {
				asJSON = true
			} else if capStr == "" {
				capStr = a
			} else {
				return fmt.Errorf("usage: bulletctl health [-json] <capability>")
			}
		}
		if capStr == "" {
			return fmt.Errorf("usage: bulletctl health [-json] <capability> (any readable file's capability authorizes the query)")
		}
		c, err := capability.Parse(capStr)
		if err != nil {
			return err
		}
		h, err := cl.Health(c)
		if err != nil {
			return err
		}
		if asJSON {
			body, err := json.MarshalIndent(h, "", "  ")
			if err != nil {
				return err
			}
			fmt.Println(string(body))
			return nil
		}
		printHealth(h)
		return nil

	case "scrub":
		c, err := parseCap(args)
		if err != nil {
			return err
		}
		if err := cl.ScrubNow(c); err != nil {
			return err
		}
		fmt.Println("scrub pass triggered")
		return nil

	case "recover":
		if len(args) != 3 {
			return fmt.Errorf("usage: bulletctl recover <admin-capability> <replica>")
		}
		c, err := capability.Parse(args[1])
		if err != nil {
			return err
		}
		var replica int
		if _, err := fmt.Sscanf(args[2], "%d", &replica); err != nil {
			return fmt.Errorf("replica %q: %w", args[2], err)
		}
		if err := cl.Recover(c, replica); err != nil {
			return err
		}
		fmt.Printf("online recovery of replica %d started\n", replica)
		return nil

	default:
		return usage()
	}
}

func parseCap(args []string) (capability.Capability, error) {
	if len(args) != 2 {
		return capability.Capability{}, fmt.Errorf("usage: bulletctl %s <capability>", args[0])
	}
	return capability.Parse(args[1])
}

// parseRange parses the "off:n" argument of get -range. The part after
// the colon may be empty or "end", meaning "to the end of the file"
// (READ_RANGE's n = -1 on the wire).
func parseRange(spec string) (off, n int64, err error) {
	offStr, nStr, ok := strings.Cut(spec, ":")
	if !ok {
		return 0, 0, fmt.Errorf("bad -range %q: want off:n (n empty or \"end\" reads to EOF)", spec)
	}
	off, err = strconv.ParseInt(offStr, 10, 64)
	if err != nil || off < 0 {
		return 0, 0, fmt.Errorf("bad -range offset %q", offStr)
	}
	if nStr == "" || nStr == "end" {
		return off, -1, nil
	}
	n, err = strconv.ParseInt(nStr, 10, 64)
	if err != nil || n < 0 {
		return 0, 0, fmt.Errorf("bad -range length %q", nStr)
	}
	return off, n, nil
}

func readInput(path string) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}

func restrict(capStr, rightsStr string) error {
	c, err := capability.Parse(capStr)
	if err != nil {
		return err
	}
	var mask capability.Rights
	for _, r := range strings.Split(rightsStr, ",") {
		switch strings.TrimSpace(r) {
		case "read":
			mask |= capability.RightRead
		case "delete":
			mask |= capability.RightDelete
		case "modify":
			mask |= capability.RightModify
		case "list":
			mask |= capability.RightList
		case "admin":
			mask |= capability.RightAdmin
		default:
			return fmt.Errorf("unknown right %q (read, delete, modify, list, admin)", r)
		}
	}
	restricted, err := capability.Restrict(c, mask)
	if err != nil {
		return err
	}
	fmt.Println(restricted)
	return nil
}

func printStats(st bulletsvc.ServerStats) {
	fmt.Printf("live files:     %d\n", st.LiveFiles)
	fmt.Printf("max file size:  %d bytes\n", st.MaxFileSize)
	fmt.Printf("creates/reads/deletes/modifies: %d/%d/%d/%d\n",
		st.Engine.Creates, st.Engine.Reads, st.Engine.Deletes, st.Engine.Modifies)
	fmt.Printf("cache: %d files, %d/%d bytes, %d hits, %d misses\n",
		st.Cache.Files, st.Cache.UsedBytes, st.Cache.TotalBytes,
		st.Engine.CacheHits, st.Engine.CacheMisses)
	fmt.Printf("disk: %d/%d blocks used, fragmentation %.1f%%, largest hole %d blocks\n",
		st.Disk.Used, st.Disk.Total, 100*st.Disk.Fragmentation(), st.Disk.LargestFree)
}

// printHealth renders the self-healing report in a terminal-friendly form.
func printHealth(h bulletsvc.HealthReport) {
	fmt.Printf("live files:       %d (layout v%d, %d checksum blocks dirty)\n",
		h.LiveFiles, h.LayoutVersion, h.DirtySums)
	fmt.Printf("promotions:       %d   recoveries: %d\n", h.Promotions, h.Recoveries)
	for _, r := range h.Replicas {
		state := "alive"
		if !r.Alive {
			state = "DEAD"
		}
		if r.Recovering {
			state = "recovering"
		}
		main := " "
		if r.Main {
			main = "*"
		}
		breaker := ""
		if r.Breaker != "" && r.Breaker != "closed" {
			breaker = fmt.Sprintf(" breaker=%s", strings.ToUpper(r.Breaker))
		}
		ewma := ""
		if r.LatencyEwmaUs > 0 {
			ewma = fmt.Sprintf(" ewma=%dus", r.LatencyEwmaUs)
		}
		fmt.Printf("replica %d%s: %-10s reads=%d writes=%d errors=%d checksum_errors=%d repairs=%d%s%s\n",
			r.Index, main, state, r.Reads, r.Writes, r.Errors, r.ChecksumErrors, r.Repairs, breaker, ewma)
	}
	if h.LastRecover != nil {
		status := "done"
		if h.LastRecover.Running {
			status = "running"
		}
		if h.LastRecover.Error != "" {
			status = "failed: " + h.LastRecover.Error
		}
		fmt.Printf("last recovery:    replica %d (%s)\n", h.LastRecover.Replica, status)
	}
	if h.Scrub != nil {
		s := h.Scrub
		state := "stopped"
		if s.Running {
			state = "running"
		}
		if s.Paused {
			state = "paused"
		}
		fmt.Printf("scrubber:         %s — %d passes, %d files checked, %d repairs, %d backfills, %d unrepairable, %d bytes read\n",
			state, s.Passes, s.FilesChecked, s.Repairs, s.Backfills, s.Unrepairable, s.BytesRead)
	}
}

// printSnapshot renders a full metrics snapshot as sorted key-value lines:
// counters and gauges verbatim, histograms as count plus quantiles.
func printSnapshot(snap stats.Snapshot) {
	section := func(title string, m map[string]int64) {
		if len(m) == 0 {
			return
		}
		fmt.Printf("%s:\n", title)
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  %-40s %d\n", k, m[k])
		}
	}
	section("counters", snap.Counters)
	section("gauges", snap.Gauges)
	if len(snap.Histograms) > 0 {
		fmt.Println("histograms:")
		keys := make([]string, 0, len(snap.Histograms))
		for k := range snap.Histograms {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			h := snap.Histograms[k]
			fmt.Printf("  %-40s n=%d p50=%.0f p95=%.0f p99=%.0f p999=%.0f max=%d\n",
				k, h.Count, h.P50, h.P95, h.P99, h.P999, h.Max)
		}
	}
}
