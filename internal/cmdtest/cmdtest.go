// Package cmdtest holds the shared test helper behind every command's
// TestUsageMentionsAllFlags guard: the flag extraction and the doc
// scans live here once, so tightening the guard tightens it for all
// four commands at the same time.
package cmdtest

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// flagRE extracts flag names from a FlagSet's -h output ("  -name ...").
var flagRE = regexp.MustCompile(`(?m)^\s+-([a-zA-Z0-9][a-zA-Z0-9-]*)\b`)

// namedFlagRE finds the flags a command line names: a "-name" token
// at the start of the line or after whitespace.
var namedFlagRE = regexp.MustCompile(`(?:^|\s)-([a-zA-Z][a-zA-Z0-9-]*)`)

// UsageMentionsAllFlags guards a command's documentation against flag
// drift in both directions. The command is the caller's working
// directory (cmd/<name>), and the -h output is the parser's ground
// truth:
//
//   - every flag the -h output prints must be mentioned, spelled
//     "-name", in the leading doc comment of mainFile;
//   - every line that shows the command being run may name only flags
//     the -h output prints (or -h/-help). Those lines are the doc
//     comment's lines that begin with the command's name, and every
//     "go run ./cmd/<name>" line of the repository's README.md and
//     docs/*.md, each with its "\" continuation lines. Other tools'
//     lines, such as curl examples, are not checked.
//
// A new flag without a doc-comment mention fails, and so does a doc
// line still showing a removed flag.
func UsageMentionsAllFlags(t *testing.T, usage, mainFile string) {
	t.Helper()
	matches := flagRE.FindAllStringSubmatch(usage, -1)
	if len(matches) == 0 {
		t.Fatalf("no flags found in -h output:\n%s", usage)
	}
	src, err := os.ReadFile(mainFile)
	if err != nil {
		t.Fatal(err)
	}
	pkg := bytes.Index(src, []byte("\npackage "))
	if pkg < 0 {
		t.Fatalf("%s has no package clause", mainFile)
	}
	doc := string(src[:pkg])
	listed := map[string]bool{"h": true, "help": true}
	for _, m := range matches {
		name := m[1]
		if listed[name] {
			continue
		}
		listed[name] = true
		if !strings.Contains(doc, "-"+name) {
			t.Errorf("%s's doc comment does not mention -%s", mainFile, name)
		}
	}

	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	cmd := filepath.Base(wd)
	// check scans the commands in lines: start reports whether a line
	// begins one and returns the text after the command's name, and a
	// trailing "\" carries the command on to the next line.
	check := func(file string, lines []string, start func(line string) (string, bool)) {
		for i := 0; i < len(lines); i++ {
			text, ok := start(lines[i])
			first := i + 1
			for ok {
				text, ok = strings.CutSuffix(strings.TrimRight(text, " \t"), `\`)
				for _, m := range namedFlagRE.FindAllStringSubmatch(text, -1) {
					if !listed[m[1]] {
						t.Errorf("%s:%d shows %s -%s, a flag its -h output does not list", file, first, cmd, m[1])
					}
				}
				if ok = ok && i+1 < len(lines); ok {
					i++
					text = strings.TrimPrefix(lines[i], "//")
				}
			}
		}
	}
	check(mainFile, strings.Split(doc, "\n"), func(line string) (string, bool) {
		text := strings.TrimSpace(strings.TrimPrefix(line, "//"))
		rest, ok := strings.CutPrefix(text, cmd)
		return rest, ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t')
	})

	root := filepath.Join(wd, "..", "..")
	docs, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	goRun := "go run ./cmd/" + cmd
	for _, path := range append([]string{filepath.Join(root, "README.md")}, docs...) {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := filepath.Rel(root, path)
		check(rel, strings.Split(string(raw), "\n"), func(line string) (string, bool) {
			_, rest, ok := strings.Cut(line, goRun)
			if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '`') {
				return "", false
			}
			// An inline code span ends at its closing backtick.
			rest, _, _ = strings.Cut(rest, "`")
			return rest, true
		})
	}
}
