// Package analysis is bulletlint: a zero-dependency static-analysis suite
// that enforces the Bullet server's concurrency, capability, and
// error-handling invariants — the properties the paper's reliability story
// depends on but the Go compiler cannot check.
//
// The suite is built from stdlib go/parser, go/ast, and go/types only. It
// loads every package in the module from source (see LoadModule) and runs
// nine passes over the typed syntax trees. Five are per-function:
//
//   - ctcmp: capability check fields must be compared in constant time
//     (crypto/subtle.ConstantTimeCompare), never with == / != / bytes.Equal,
//     so forgery attempts cannot measure how many bytes matched.
//   - lockguard: struct fields annotated "// guarded by <mu>" may only be
//     accessed by functions that visibly lock that mutex (or that follow
//     the FooLocked naming convention for caller-holds-lock helpers).
//   - panicfree: no panic call may be reachable from an RPC handler entry
//     point; a malformed request must degrade to an error reply, never take
//     the server down mid-request.
//   - errwrap: errors returned across exported package boundaries must be
//     sentinel errors or wrapped with %w so callers can errors.Is/As them.
//   - goroutinestop: every goroutine launched by server code must be
//     stoppable (observes a context or stop channel) or accounted
//     (WaitGroup-tracked), so shutdown cannot leak work.
//
// Four are interprocedural, built on a module-wide call graph (see
// CallGraph) and a flow-sensitive walk of each function body:
//
//   - lockorder: every mutex acquisition must descend the checked-in lock
//     hierarchy (lockspec.json, prose twin docs/CONCURRENCY.md); helpers'
//     transitive may-acquire sets are checked at every call made under a
//     held lock.
//   - pinleak: every cache View pin must be released on every path;
//     returning the View transfers the obligation to the caller.
//   - spanbalance: every trace span opened with Begin must be closed with
//     End on every path, with the same transfer-by-return rule.
//   - rightscheck: every RPC command handler must verify a capability
//     right before reaching a state-mutating engine method.
//
// Diagnostics can be suppressed one at a time with an annotation on the
// offending line or the line above it:
//
//	//lint:ignore <pass>[,<pass>...] <reason>
//
// The reason is mandatory: a suppression without a justification is itself
// a diagnostic. So is a stale suppression — one whose named pass ran and
// found nothing on the lines it covers — because a suppression that
// outlives its finding hides the next real one.
package analysis

import (
	"errors"
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// Errors returned by the driver.
var (
	// ErrUnknownPass means a -disable flag named a pass that does not exist.
	ErrUnknownPass = errors.New("analysis: unknown pass")
	// ErrNoModule means no go.mod was found at or above the start directory.
	ErrNoModule = errors.New("analysis: no go.mod found")
	// ErrBadPattern means a package pattern matched nothing.
	ErrBadPattern = errors.New("analysis: pattern matched no packages")
)

// Diagnostic is one finding: a rule violation at a position.
type Diagnostic struct {
	Pass    string `json:"pass"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

// String renders the conventional file:line:col: message (pass) form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.File, d.Line, d.Col, d.Message, d.Pass)
}

// Config carries the knobs passes need beyond the syntax trees themselves.
type Config struct {
	// PanicRoots lists import-path prefixes whose exported functions and
	// methods are treated as RPC-handler entry points by panicfree.
	PanicRoots []string

	// LockSpec is the lock hierarchy lockorder enforces. DefaultConfig
	// uses the embedded lockspec.json; tests point it at their own
	// hierarchies.
	LockSpec []LockSpecEntry

	// PinObligation and SpanObligation parameterize the obligation
	// engine for pinleak and spanbalance. LeaseObligation is pinleak's
	// second resource: engine ReadLeases, which wrap pinned Views and
	// must be Released (or handed to the RPC reply path, which releases
	// them after the socket write) on every path. An empty Type disables
	// it.
	PinObligation   ObligationSpec
	SpanObligation  ObligationSpec
	LeaseObligation ObligationSpec

	// RightsRoots lists the package paths whose functions rightscheck
	// treats as command handlers. RightsVerifiers and RightsMutators
	// name the capability-checking and state-mutating functions, as
	// "pkg/path.Func" or "pkg/path.Type.Method".
	RightsRoots     []string
	RightsVerifiers []string
	RightsMutators  []string
}

// DefaultConfig returns the configuration bulletlint ships with: the
// Bullet server's RPC-facing packages are the panic roots, the embedded
// lockspec.json is the hierarchy, cache Views and trace spans are the
// tracked obligations, and the bulletsvc handlers are the rights roots.
func DefaultConfig() Config {
	return Config{
		PanicRoots: []string{
			"bulletfs/internal/bullet",
			"bulletfs/internal/bulletsvc",
			"bulletfs/internal/directory",
			"bulletfs/internal/rpc",
		},
		LockSpec:        DefaultLockSpec(),
		PinObligation:   defaultPinObligation(),
		SpanObligation:  defaultSpanObligation(),
		LeaseObligation: defaultLeaseObligation(),
		RightsRoots:     []string{"bulletfs/internal/bulletsvc"},
		RightsVerifiers: []string{
			"bulletfs/internal/bullet.Server.verify",
			"bulletfs/internal/bullet.Server.AuthorizeRead",
			"bulletfs/internal/bullet.Server.AuthorizeAdmin",
			"bulletfs/internal/capability.Verify",
		},
		RightsMutators: []string{
			"bulletfs/internal/layout.Table.Allocate",
			"bulletfs/internal/layout.Table.Free",
			"bulletfs/internal/layout.Table.WriteInode",
			"bulletfs/internal/layout.Table.WriteInodeBuf",
			"bulletfs/internal/layout.Table.FlushSums",
			"bulletfs/internal/layout.Table.Retarget",
			"bulletfs/internal/alloc.Allocator.Alloc",
			"bulletfs/internal/alloc.Allocator.Free",
			"bulletfs/internal/alloc.Allocator.Reset",
			"bulletfs/internal/bullet.Server.StartRecover",
			"bulletfs/internal/scrub.Scrubber.TriggerPass",
			"bulletfs/internal/cache.Cache.Compact",
		},
	}
}

// An Analyzer is one pass over the whole program.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(prog *Program, cfg Config, report ReportFunc)
}

// ReportFunc records one diagnostic at pos.
type ReportFunc func(pos token.Pos, format string, args ...any)

// All returns every pass in the suite, in the order they run.
func All() []*Analyzer {
	return []*Analyzer{
		CTCmp, LockGuard, PanicFree, ErrWrap, GoroutineStop,
		LockOrder, PinLeak, SpanBalance, RightsCheck,
	}
}

// Select returns the suite minus the named passes. Unknown names in
// disabled are reported as an error so a typo cannot silently disable
// nothing.
func Select(disabled []string) ([]*Analyzer, error) {
	off := make(map[string]bool, len(disabled))
	for _, name := range disabled {
		if name = strings.TrimSpace(name); name != "" {
			off[name] = true
		}
	}
	var out []*Analyzer
	for _, a := range All() {
		if off[a.Name] {
			delete(off, a.Name)
			continue
		}
		out = append(out, a)
	}
	if len(off) > 0 {
		var unknown []string
		for name := range off {
			unknown = append(unknown, name)
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("%s: %w", strings.Join(unknown, ", "), ErrUnknownPass)
	}
	return out, nil
}

// Run executes the given passes over the program and returns the surviving
// diagnostics, sorted by position, with lint:ignore suppressions applied.
func Run(prog *Program, cfg Config, passes []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range passes {
		name := a.Name
		a.Run(prog, cfg, func(pos token.Pos, format string, args ...any) {
			p := prog.Fset.Position(pos)
			diags = append(diags, Diagnostic{
				Pass:    name,
				File:    p.Filename,
				Line:    p.Line,
				Col:     p.Column,
				Message: fmt.Sprintf(format, args...),
			})
		})
	}
	sup := collectSuppressions(prog)
	kept := diags[:0]
	for _, d := range diags {
		if !sup.covers(d) {
			kept = append(kept, d)
		}
	}
	diags = append(sup.malformed, kept...)
	diags = append(diags, sup.stale(passes)...)
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].File != diags[j].File {
			return diags[i].File < diags[j].File
		}
		if diags[i].Line != diags[j].Line {
			return diags[i].Line < diags[j].Line
		}
		if diags[i].Col != diags[j].Col {
			return diags[i].Col < diags[j].Col
		}
		return diags[i].Pass < diags[j].Pass
	})
	// Drop exact duplicates (a pass may flag one position twice, e.g. both
	// operands of a comparison).
	uniq := diags[:0]
	for i, d := range diags {
		if i == 0 || d != diags[i-1] {
			uniq = append(uniq, d)
		}
	}
	return uniq
}

// ignoreRe matches the suppression annotation grammar:
// //lint:ignore pass[,pass...] reason
var ignoreRe = regexp.MustCompile(`^lint:ignore\s+([a-z]+(?:\s*,\s*[a-z]+)*)(\s+\S.*)?$`)

// ignoreAnnotation extracts the annotation body from a comment, or "" when
// the comment is not an annotation. Only a comment whose own text starts
// with the marker counts; prose that merely mentions the grammar does not.
func ignoreAnnotation(text string) string {
	body := strings.TrimSpace(strings.TrimPrefix(text, "//"))
	if strings.HasPrefix(body, "lint:ignore") {
		return body
	}
	return ""
}

// suppEntry is one (annotation line, pass) suppression; used records
// whether it absorbed at least one diagnostic this run.
type suppEntry struct {
	col  int
	used bool
}

type suppressions struct {
	// byFileLine maps file -> line -> suppressed pass name -> entry.
	byFileLine map[string]map[int]map[string]*suppEntry
	malformed  []Diagnostic
}

func (s suppressions) covers(d Diagnostic) bool {
	lines := s.byFileLine[d.File]
	if lines == nil {
		return false
	}
	for _, ln := range [2]int{d.Line, d.Line - 1} {
		if e := lines[ln][d.Pass]; e != nil {
			e.used = true
			return true
		}
	}
	return false
}

// stale reports every suppression that absorbed nothing, restricted to
// passes that actually ran this invocation (a -disable'd pass proves
// nothing about its suppressions).
func (s suppressions) stale(passes []*Analyzer) []Diagnostic {
	ran := make(map[string]bool, len(passes))
	for _, a := range passes {
		ran[a.Name] = true
	}
	var out []Diagnostic
	for file, lines := range s.byFileLine {
		for line, set := range lines {
			for pass, e := range set {
				if !e.used && ran[pass] {
					out = append(out, Diagnostic{
						Pass: "lint", File: file, Line: line, Col: e.col,
						Message: fmt.Sprintf("stale lint:ignore: pass %s reports nothing here; delete the suppression", pass),
					})
				}
			}
		}
	}
	return out
}

func collectSuppressions(prog *Program) suppressions {
	sup := suppressions{byFileLine: make(map[string]map[int]map[string]*suppEntry)}
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					body := ignoreAnnotation(c.Text)
					if body == "" {
						continue
					}
					p := prog.Fset.Position(c.Pos())
					m := ignoreRe.FindStringSubmatch(body)
					if m == nil || strings.TrimSpace(m[2]) == "" {
						sup.malformed = append(sup.malformed, Diagnostic{
							Pass: "lint", File: p.Filename, Line: p.Line, Col: p.Column,
							Message: "malformed lint:ignore: want //lint:ignore <pass>[,<pass>...] <reason>",
						})
						continue
					}
					lines := sup.byFileLine[p.Filename]
					if lines == nil {
						lines = make(map[int]map[string]*suppEntry)
						sup.byFileLine[p.Filename] = lines
					}
					set := lines[p.Line]
					if set == nil {
						set = make(map[string]*suppEntry)
						lines[p.Line] = set
					}
					for _, name := range strings.Split(m[1], ",") {
						name = strings.TrimSpace(name)
						if !known[name] {
							sup.malformed = append(sup.malformed, Diagnostic{
								Pass: "lint", File: p.Filename, Line: p.Line, Col: p.Column,
								Message: fmt.Sprintf("lint:ignore names unknown pass %q", name),
							})
							continue
						}
						if set[name] == nil {
							set[name] = &suppEntry{col: p.Column}
						}
					}
				}
			}
		}
	}
	return sup
}

// enclosingFunc returns the innermost FuncDecl in file containing pos,
// or nil when pos sits outside any function body.
func enclosingFunc(file *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos <= fd.End() {
			return fd
		}
	}
	return nil
}
