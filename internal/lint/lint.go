// Package lint is a small static-analysis framework for the texcache
// simulator, built purely on the standard library's go/parser, go/ast,
// go/types and go/importer. It exists because the simulator's value rests
// on its texel reference stream being bit-for-bit deterministic: the
// paper's tables are only comparable across cache architectures because
// the identical trace drives every configuration. The analyzers enforce
// the invariants that keep it so — no wall-clock or unseeded randomness,
// no order-dependent map iteration feeding results, 64-bit byte/texel
// counters, allocation-free hot paths, and the repo's panic and error
// conventions.
//
// Eight analyzers run in three tiers: the syntactic tier (determinism,
// counterwidth, hotpath, panicstyle, errcheck), the texvet tier
// (hotalloc, which closes a package's call graph over the hot-marked
// functions, and globalmut, which checks writes to package-level state),
// and the map-order taint tier (mapiter), which runs over per-function
// summaries of map-order taint computed by the suite's one module-wide
// fixpoint (FlowFacts).
//
// Diagnostics may be suppressed with a comment on the offending line or
// the line directly above it:
//
//	//texlint:ignore <analyzer> [reason]
//
// where <analyzer> is an analyzer name or "all".
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position, the analyzer that produced it and
// a human-readable message.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the canonical "file:line: [analyzer]
// message" form used by cmd/texlint.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
}

// Package is one parsed and type-checked package as presented to analyzers.
type Package struct {
	// Path is the import path (or a synthetic name for test fixtures).
	Path string
	// Fset positions all files of the package.
	Fset *token.FileSet
	// Files holds the parsed syntax, comments included.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info carries the type-checker's expression and object tables.
	Info *types.Info
}

// Pass is the per-(analyzer, package) context handed to Analyzer.Run.
type Pass struct {
	Pkg      *Package
	Facts    *Facts
	analyzer *Analyzer
	out      *[]Diagnostic
}

// Facts carries cross-package knowledge shared by the analyzers: which
// functions are marked hot, and which import paths belong to the module
// under analysis. It is computed once per Run over every loaded package,
// so an analyzer inspecting package P can ask about functions defined in
// P's dependencies.
type Facts struct {
	// Hot maps functions whose doc comment carries the texlint:hotpath
	// marker.
	Hot map[*types.Func]bool
	// ModulePkgs is the set of import paths analyzed together.
	ModulePkgs map[string]bool
	// Flow holds the map-order taint summaries mapiter reads.
	Flow *FlowFacts
}

// CollectFacts scans every package's function doc comments for the
// hotpath marker.
func CollectFacts(pkgs []*Package) *Facts {
	f := &Facts{
		Hot:        make(map[*types.Func]bool),
		ModulePkgs: make(map[string]bool),
		Flow:       collectFlowFacts(pkgs),
	}
	for _, pkg := range pkgs {
		f.ModulePkgs[pkg.Path] = true
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Doc == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fn.Name].(*types.Func)
				if !ok {
					continue
				}
				for _, c := range fn.Doc.List {
					if strings.Contains(c.Text, HotpathMarker) {
						f.Hot[obj] = true
					}
				}
			}
		}
	}
	return f
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.out = append(*p.out, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil when unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// Analyzer is one self-contained check.
type Analyzer struct {
	// Name is the identifier used in diagnostics and ignore directives.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run inspects one package, reporting findings through the pass.
	Run func(*Pass)
}

// All returns every analyzer in the suite, in stable order: the five
// syntactic analyzers, the two texvet analyzers and the map-order taint
// analyzer.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism,
		Hotpath,
		Counterwidth,
		Panicstyle,
		Errcheck,
		Hotalloc,
		Globalmut,
		Mapiter,
	}
}

// Run applies the analyzers to every package, filters findings through
// //texlint:ignore directives, and returns the remainder sorted by file,
// line and analyzer. It applies no package waivers; see RunConfigured.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	diags, _ := RunConfigured(pkgs, analyzers, nil) // a nil config cannot be invalid
	return diags
}

// RunConfigured is Run with a waiver config: analyzer x package pairs the
// config allows are skipped entirely, so an allowlisted package neither
// reports findings nor needs ignore comments for that analyzer. A config
// that waives an analyzer name not registered in All() is an error — a
// programmatically built FileConfig bypasses ParseConfig's validation,
// and a typo'd name would otherwise silently waive nothing.
func RunConfigured(pkgs []*Package, analyzers []*Analyzer, cfg *FileConfig) ([]Diagnostic, error) {
	if cfg != nil {
		if name := firstUnknownAnalyzer(cfg.Allow); name != "" {
			return nil, fmt.Errorf("lint: config waives unregistered analyzer %q", name)
		}
	}
	facts := CollectFacts(pkgs)
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if cfg.Allows(a.Name, pkg.Path) {
				continue
			}
			pass := &Pass{Pkg: pkg, Facts: facts, analyzer: a, out: &diags}
			a.Run(pass)
		}
		diags = suppress(diags, pkg)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// ignoreDirective is one parsed //texlint:ignore comment.
type ignoreDirective struct {
	file      string
	line      int
	analyzers map[string]bool // or {"all": true}
}

// parseIgnores collects every ignore directive in the package.
func parseIgnores(pkg *Package) []ignoreDirective {
	var dirs []ignoreDirective
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, "texlint:ignore")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				d := ignoreDirective{
					file:      pos.Filename,
					line:      pos.Line,
					analyzers: make(map[string]bool),
				}
				// Everything after the analyzer list is free-form
				// rationale; analyzers are comma- or space-separated
				// names before the first non-name token.
			tokens:
				for _, tok := range strings.Fields(rest) {
					for _, name := range strings.Split(tok, ",") {
						if name == "" {
							continue
						}
						if !isAnalyzerName(name) {
							break tokens
						}
						d.analyzers[name] = true
					}
				}
				dirs = append(dirs, d)
			}
		}
	}
	return dirs
}

// isAnalyzerName reports whether s names a known analyzer or "all".
func isAnalyzerName(s string) bool {
	if s == "all" {
		return true
	}
	for _, a := range All() {
		if a.Name == s {
			return true
		}
	}
	return false
}

// suppress drops diagnostics covered by an ignore directive on the same
// line or the line immediately above.
func suppress(diags []Diagnostic, pkg *Package) []Diagnostic {
	dirs := parseIgnores(pkg)
	if len(dirs) == 0 {
		return diags
	}
	covered := func(d Diagnostic) bool {
		for _, dir := range dirs {
			if dir.file != d.Pos.Filename {
				continue
			}
			if dir.line != d.Pos.Line && dir.line != d.Pos.Line-1 {
				continue
			}
			if dir.analyzers["all"] || dir.analyzers[d.Analyzer] {
				return true
			}
		}
		return false
	}
	out := diags[:0]
	for _, d := range diags {
		if !covered(d) {
			out = append(out, d)
		}
	}
	return out
}

// calleeObj resolves the object a call invokes, following selector and
// plain identifiers. It returns nil for indirect calls and conversions.
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		if sel := info.Selections[fun]; sel != nil {
			return sel.Obj()
		}
		return info.Uses[fun.Sel]
	}
	return nil
}

// calleeIsPkgFunc reports whether the call invokes pkgPath.name.
func calleeIsPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	obj := calleeObj(info, call)
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// calleePkgPath returns the defining package path of the callee, or "".
func calleePkgPath(info *types.Info, call *ast.CallExpr) string {
	obj := calleeObj(info, call)
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// isBuiltin reports whether the call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// contains reports whether outer's source range encloses inner's.
func contains(outer, inner ast.Node) bool {
	if outer == nil || inner == nil {
		return false
	}
	return outer.Pos() <= inner.Pos() && inner.End() <= outer.End()
}

// rootVar resolves the base variable of an lvalue or reference expression:
// V, V.f, V[i], *V, (&V) and chains thereof all root at V. It returns nil
// for literals, calls and globals-of-other-kinds.
func rootVar(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			v, _ := info.ObjectOf(x).(*types.Var)
			return v
		case *ast.SelectorExpr:
			// Package-qualified identifiers (pkg.Var) resolve through the
			// selection; otherwise descend into the operand.
			if info.Selections[x] == nil {
				v, _ := info.ObjectOf(x.Sel).(*types.Var)
				return v
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isPackageLevel reports whether v is a package-scope variable.
func isPackageLevel(v *types.Var) bool {
	return v.Parent() != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// isSyncType reports whether t is a synchronization primitive whose
// methods establish happens-before edges: anything from package sync or
// sync/atomic, or a channel.
func isSyncType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if _, ok := t.Underlying().(*types.Chan); ok {
		return true
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && (pkg.Path() == "sync" || pkg.Path() == "sync/atomic")
}
