// Command texlint runs the texcache static-analysis suite over the module.
//
// Usage:
//
//	go run ./cmd/texlint ./...
//	go run ./cmd/texlint -json ./internal/cache
//	go run ./cmd/texlint -list
//	go run ./cmd/texlint -only determinism,errcheck ./...
//	go run ./cmd/texlint -skip mapiter ./...
//
// texlint loads every non-test package of the enclosing module and runs
// the analyzers over all of them, so cross-package facts never depend on
// which packages are named. -only (run exactly these) and -skip (run all
// but these) scope the suite; an unknown name in either is a usage error
// listing the registered analyzers. Findings in the named packages print
// one per line as
//
//	file:line: [analyzer] message
//
// Exit status is 0 when clean, 1 when findings were reported and 2 on a
// load or usage error. Findings are suppressed by a comment on the same
// line or the line above:
//
//	//texlint:ignore <analyzer> [reason]
//
// Package-scoped waivers come from texlint.conf.json at the module root
// (or the file named by -config): a JSON map of analyzer name to the
// import paths exempt from it, e.g.
//
//	{"allow": {"determinism": ["texcache/internal/telemetry"]}}
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"texcache/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("texlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut  = fs.Bool("json", false, "emit diagnostics as a JSON array")
		list     = fs.Bool("list", false, "list analyzers and exit")
		only     = fs.String("only", "", "run only these comma-separated analyzers")
		skip     = fs.String("skip", "", "run all but these comma-separated analyzers")
		confPath = fs.String("config", "", "package waiver file (default: "+lint.ConfigFile+" at the module root, if present)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	suite, err := selectAnalyzers(lint.All(), *only, *skip)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "texlint:", err)
		return 2
	}
	root, err := lint.ModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "texlint:", err)
		return 2
	}
	pkgs, err := lint.LoadModule(root)
	if err != nil {
		fmt.Fprintln(stderr, "texlint:", err)
		return 2
	}
	named := namedDirs(pkgs, root, cwd, fs.Args())
	if len(named) == 0 {
		fmt.Fprintf(stderr, "texlint: no packages match %s\n", strings.Join(fs.Args(), " "))
		return 2
	}

	var conf *lint.FileConfig
	if *confPath != "" {
		data, err := os.ReadFile(*confPath)
		if err != nil {
			fmt.Fprintln(stderr, "texlint:", err)
			return 2
		}
		if conf, err = lint.ParseConfig(data); err != nil {
			fmt.Fprintln(stderr, "texlint:", err)
			return 2
		}
	} else if conf, err = lint.LoadConfig(root); err != nil {
		fmt.Fprintln(stderr, "texlint:", err)
		return 2
	}

	// The suite runs over every package so that cross-package facts (hot
	// marks, map-order summaries) are the same whichever packages are
	// named; only the named packages' findings are reported.
	diags, err := lint.RunConfigured(pkgs, suite, conf)
	if err != nil {
		fmt.Fprintln(stderr, "texlint:", err)
		return 2
	}
	keep := diags[:0]
	for _, d := range diags {
		if named[filepath.Dir(d.Pos.Filename)] {
			keep = append(keep, d)
		}
	}
	diags = keep
	for i := range diags {
		if rel, err := filepath.Rel(cwd, diags[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].Pos.Filename = rel
		}
	}

	if *jsonOut {
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiag{d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, "texlint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "texlint: %d finding(s)\n", len(diags))
		}
		return 1
	}
	return 0
}

// jsonDiag is one diagnostic as -json serialises it.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// namedDirs returns the directories of the loaded packages named by the
// argument patterns. "./..." (or no arguments) names everything under the
// current directory; "dir" or "dir/..." names that directory (and, with
// /..., its subtree), resolved relative to the current directory.
func namedDirs(pkgs []*lint.Package, root, cwd string, patterns []string) map[string]bool {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	type rule struct {
		dir     string // absolute
		subtree bool
	}
	rules := make([]rule, 0, len(patterns))
	for _, p := range patterns {
		subtree := false
		if strings.HasSuffix(p, "/...") {
			subtree = true
			p = strings.TrimSuffix(p, "/...")
			if p == "." || p == "" {
				p = cwd
			}
		} else if p == "..." {
			subtree = true
			p = cwd
		}
		if !filepath.IsAbs(p) {
			p = filepath.Join(cwd, p)
		}
		rules = append(rules, rule{dir: filepath.Clean(p), subtree: subtree})
	}
	named := make(map[string]bool)
	for _, pkg := range pkgs {
		dir := pkgDir(pkg, root)
		for _, r := range rules {
			if dir == r.dir || (r.subtree && strings.HasPrefix(dir+string(filepath.Separator), r.dir+string(filepath.Separator))) {
				named[dir] = true
				break
			}
		}
	}
	return named
}

// pkgDir recovers the package's directory from its first file position.
func pkgDir(pkg *lint.Package, root string) string {
	if len(pkg.Files) == 0 {
		return root
	}
	return filepath.Dir(pkg.Fset.Position(pkg.Files[0].Pos()).Filename)
}
