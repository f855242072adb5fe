package analysis

// PinLeak verifies that every cache View pin is released on every path.
// A View pins its cache slot against eviction and compaction (the cache
// refuses to compact while anything is pinned), so a leaked pin on an
// error path slowly wedges the whole cache. The pass tracks each call
// returning a *cache.View as an obligation on the variable it is bound
// to: calling Release discharges it, returning the View to the caller
// transfers it (the caller's copy of this analysis takes over), passing
// it to another function hands it off, and a branch that proves the
// paired error non-nil makes it vacuous (a failed lookup pins nothing).
// Whatever reaches a return or the end of the function undischarged is
// reported at the site that created the pin.
//
// The pass tracks a second resource with the same rules: engine
// ReadLeases (bullet.ReadView), which wrap pinned Views for
// the zero-copy reply path. Handing a lease to another call — most
// importantly rpc.Owned(lease.Bytes(), lease), which makes the RPC
// layer release it after the socket write — discharges the obligation,
// exactly like handing off a raw View.
var PinLeak = &Analyzer{
	Name: "pinleak",
	Doc:  "every cache View pin must be released on every path",
	Run: func(prog *Program, cfg Config, report ReportFunc) {
		runObligations("pinleak", cfg.PinObligation, prog, report)
		if cfg.LeaseObligation.Type != "" {
			runObligations("pinleak", cfg.LeaseObligation, prog, report)
		}
	},
}

// defaultPinObligation describes cache View pins for the engine.
func defaultPinObligation() ObligationSpec {
	return ObligationSpec{
		Type:          "bulletfs/internal/cache.View",
		ReleaseMethod: "Release",
		TransferOnArg: true,
		Noun:          "View",
		Verb:          "released",
	}
}

// defaultLeaseObligation describes engine read leases: a pinned View
// dressed for the wire. TransferOnArg covers the ownership handoff to
// the RPC reply path (rpc.Owned) as well as ordinary helper calls.
func defaultLeaseObligation() ObligationSpec {
	return ObligationSpec{
		Type:          "bulletfs/internal/bullet.ReadLease",
		ReleaseMethod: "Release",
		TransferOnArg: true,
		Noun:          "lease",
		Verb:          "released",
	}
}
