// Command apicheck is the CI gate on the library's exported surface. It
// renders the public API of package dynlocal with go doc -all, normalizes
// it down to declarations only, and compares the result against the
// checked-in snapshot docs/api-surface.txt. Any drift — an export added,
// removed or re-signatured without updating the snapshot — fails the
// build, which turns every API change into an explicit, reviewable diff.
//
// Run it from the repo root:
//
//	go run ./scripts/apicheck          # verify, exit 1 on drift
//	go run ./scripts/apicheck -update  # rewrite docs/api-surface.txt
//
// Normalization keeps section headers (CONSTANTS, FUNCTIONS, TYPES, ...)
// and declaration lines, and drops the package comment, per-declaration
// doc prose (the 4-space-indented text go doc emits), comment-only lines
// and blanks. Doc wording can therefore improve freely; only the
// signatures are pinned.
//
// go doc prints an exported alias (type EngineConfig = engine.Config) as
// one line, which would hide the fields of the struct it names. Every
// alias to a struct type is therefore followed by that struct's exported
// field lines, taken from go doc of the target declaration with comments
// dropped and whitespace collapsed, so adding or removing a field (a
// configuration knob) is API drift like any other.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path"
	"regexp"
	"strings"
)

const snapshotPath = "docs/api-surface.txt"

var sectionHeaders = map[string]bool{
	"CONSTANTS": true,
	"VARIABLES": true,
	"FUNCTIONS": true,
	"TYPES":     true,
}

func main() {
	update := flag.Bool("update", false, "rewrite "+snapshotPath+" instead of verifying it")
	flag.Parse()

	out, err := exec.Command("go", "doc", "-all", ".").Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "apicheck: go doc -all .: %v\n", err)
		os.Exit(1)
	}
	got, err := expandAliases(normalize(string(out)))
	if err != nil {
		fmt.Fprintf(os.Stderr, "apicheck: %v\n", err)
		os.Exit(1)
	}

	if *update {
		if err := os.WriteFile(snapshotPath, []byte(got), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "apicheck: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("apicheck: wrote %s (%d lines)\n", snapshotPath, strings.Count(got, "\n"))
		return
	}

	want, err := os.ReadFile(snapshotPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "apicheck: %v\nRun: go run ./scripts/apicheck -update\n", err)
		os.Exit(1)
	}
	if got == string(want) {
		return
	}
	fmt.Fprintf(os.Stderr, "apicheck: exported API surface drifted from %s\n\n", snapshotPath)
	reportDiff(strings.Split(strings.TrimRight(string(want), "\n"), "\n"),
		strings.Split(strings.TrimRight(got, "\n"), "\n"))
	fmt.Fprintf(os.Stderr, "\nIf the change is intentional: go run ./scripts/apicheck -update\n")
	os.Exit(1)
}

// normalize reduces go doc -all output to the declaration surface: the
// package clause is skipped until the first section header, and from
// there every blank, comment-only or 4-space-indented prose line is
// dropped.
func normalize(doc string) string {
	var b strings.Builder
	inBody := false
	for _, line := range strings.Split(doc, "\n") {
		if !inBody {
			inBody = sectionHeaders[line]
			if !inBody {
				continue
			}
		}
		if line == "" || strings.HasPrefix(line, "    ") {
			continue
		}
		if strings.HasPrefix(strings.TrimLeft(line, "\t"), "//") {
			continue
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// aliasRE matches an exported alias to another package's exported type.
var aliasRE = regexp.MustCompile(`^type ([A-Z]\w*) = (\w+)\.([A-Z]\w*)$`)

// expandAliases appends, after every alias line of the normalized
// surface, the exported fields of the struct the alias names (nothing
// for non-struct targets). Package names resolve through the imports of
// package dynlocal.
func expandAliases(surface string) (string, error) {
	out, err := exec.Command("go", "list", "-f", `{{join .Imports "\n"}}`, ".").Output()
	if err != nil {
		return "", fmt.Errorf("go list .: %v", err)
	}
	imports := make(map[string]string)
	for _, p := range strings.Fields(string(out)) {
		imports[path.Base(p)] = p
	}
	var b strings.Builder
	for _, line := range strings.SplitAfter(surface, "\n") {
		b.WriteString(line)
		m := aliasRE.FindStringSubmatch(strings.TrimSuffix(line, "\n"))
		if m == nil {
			continue
		}
		pkg, ok := imports[m[2]]
		if !ok {
			return "", fmt.Errorf("alias %s: package %q is not imported by dynlocal", m[1], m[2])
		}
		fields, err := structFields(pkg, m[3])
		if err != nil {
			return "", err
		}
		for _, f := range fields {
			b.WriteString("\t" + f + "\n")
		}
	}
	return b.String(), nil
}

// structFields returns the exported field lines of pkg.typ's declaration
// as go doc prints it, or nil if the type is not a struct. Field comments
// are dropped and runs of whitespace collapsed, so only the names and
// types are pinned, not their doc or alignment.
func structFields(pkg, typ string) ([]string, error) {
	out, err := exec.Command("go", "doc", pkg+"."+typ).Output()
	if err != nil {
		return nil, fmt.Errorf("go doc %s.%s: %v", pkg, typ, err)
	}
	var fields []string
	inStruct := false
	for _, line := range strings.Split(string(out), "\n") {
		if !inStruct {
			inStruct = line == "type "+typ+" struct {"
			continue
		}
		if line == "}" {
			break
		}
		// Only top-level fields: one tab deep, not a comment.
		f, ok := strings.CutPrefix(line, "\t")
		if !ok || strings.HasPrefix(f, "\t") || strings.HasPrefix(f, "//") {
			continue
		}
		if i := strings.Index(f, "//"); i >= 0 {
			f = f[:i]
		}
		if f = strings.Join(strings.Fields(f), " "); f != "" {
			fields = append(fields, f)
		}
	}
	return fields, nil
}

// reportDiff prints the set difference of the two line lists — enough to
// see what was added or removed without a real diff algorithm.
func reportDiff(want, got []string) {
	wantSet := make(map[string]int, len(want))
	for _, l := range want {
		wantSet[l]++
	}
	gotSet := make(map[string]int, len(got))
	for _, l := range got {
		gotSet[l]++
	}
	for _, l := range want {
		if gotSet[l] == 0 {
			fmt.Fprintf(os.Stderr, "  - %s\n", l)
		}
	}
	for _, l := range got {
		if wantSet[l] == 0 {
			fmt.Fprintf(os.Stderr, "  + %s\n", l)
		}
	}
}
