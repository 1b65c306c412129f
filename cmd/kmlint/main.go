// Command kmlint runs the project's static analyzer suite (internal/lint)
// over the named packages and reports findings as
//
//	file:line: [check] message
//
// exiting 1 when anything is found. It understands the same ./... pattern
// as the go tool, skipping testdata, vendor and hidden directories.
// Findings are suppressed with audited //kmlint:ignore directives — see
// internal/lint and the "Static invariants and kmlint" section of
// DESIGN.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/kompics/kompicsmessaging-go/internal/lint"
)

// jsonDiag is the -json wire form: one object per line, CI-annotation
// friendly. Suppressed findings appear with suppressed=true and the
// covering directive in ignored_by.
type jsonDiag struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Check      string `json:"check"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed,omitempty"`
	IgnoredBy  string `json:"ignored_by,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command; it returns the exit status: 0 clean, 1
// findings, 2 a usage or load error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("kmlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	checkFlag := fs.String("check", "", "run only this comma-separated subset of checks (default: all)")
	listFlag := fs.Bool("list", false, "list available checks and exit")
	jsonFlag := fs.Bool("json", false, "emit one JSON diagnostic per line (including suppressed findings with their covering directive)")
	auditFlag := fs.Bool("audit-ignores", false, "report kmlint:ignore directives that no longer suppress anything (full suite only)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: kmlint [flags] [packages]\n\npackages use go-style patterns (default ./...)\n\nflags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "kmlint: %v\n", err)
		return 2
	}

	if *listFlag {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := lint.Analyzers()
	if *checkFlag != "" {
		// With a partial suite, ignores for the skipped checks would all
		// look stale; unused auditing needs the full run.
		if *auditFlag {
			return fail(errors.New("-audit-ignores requires the full suite; drop -check"))
		}
		analyzers = analyzers[:0:0]
		for _, name := range strings.Split(*checkFlag, ",") {
			a := lint.AnalyzerByName(strings.TrimSpace(name))
			if a == nil {
				return fail(fmt.Errorf("unknown check %q (try -list)", name))
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs, err := expandPatterns(patterns)
	if err != nil {
		return fail(err)
	}
	if len(dirs) == 0 {
		return fail(errors.New("no packages matched"))
	}

	loader, err := lint.NewLoader(dirs[0])
	if err != nil {
		return fail(err)
	}
	diags, err := lint.Run(loader, dirs, analyzers, lint.RunOptions{
		ReportUnused:   *auditFlag,
		KeepSuppressed: *jsonFlag,
	})
	if err != nil {
		return fail(err)
	}

	cwd, _ := os.Getwd()
	relTo := func(name string) string {
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(rel, "..") {
				return rel
			}
		}
		return name
	}
	enc := json.NewEncoder(stdout)
	findings := 0
	for _, d := range diags {
		d.Pos.Filename = relTo(d.Pos.Filename)
		if cwd != "" {
			d.IgnoredBy = strings.TrimPrefix(d.IgnoredBy, cwd+string(filepath.Separator))
		}
		if !d.Suppressed {
			findings++
		}
		if *jsonFlag {
			if err := enc.Encode(jsonDiag{
				File:       d.Pos.Filename,
				Line:       d.Pos.Line,
				Col:        d.Pos.Column,
				Check:      d.Check,
				Message:    d.Message,
				Suppressed: d.Suppressed,
				IgnoredBy:  d.IgnoredBy,
			}); err != nil {
				return fail(err)
			}
			continue
		}
		fmt.Fprintln(stdout, d.String())
	}
	if findings > 0 {
		fmt.Fprintf(stderr, "kmlint: %d finding(s)\n", findings)
		return 1
	}
	return 0
}

// expandPatterns resolves go-style package patterns to package directories
// (directories containing at least one .go file). Like the go tool, the
// recursive walk skips testdata, vendor, and dot- or underscore-prefixed
// directories.
func expandPatterns(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) error {
		abs, err := filepath.Abs(dir)
		if err != nil {
			return err
		}
		if !seen[abs] {
			seen[abs] = true
			dirs = append(dirs, abs)
		}
		return nil
	}
	for _, pat := range patterns {
		root, recursive := strings.CutSuffix(pat, "/...")
		if pat == "..." {
			root, recursive = ".", true
		}
		if root == "" {
			root = "."
		}
		if !recursive {
			ok, err := hasGoFiles(root)
			if err != nil {
				return nil, err
			}
			if !ok {
				return nil, fmt.Errorf("no Go files in %s", root)
			}
			if err := add(root); err != nil {
				return nil, err
			}
			continue
		}
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			ok, err := hasGoFiles(path)
			if err != nil {
				return err
			}
			if ok {
				return add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasPrefix(e.Name(), ".") {
			return true, nil
		}
	}
	return false, nil
}
