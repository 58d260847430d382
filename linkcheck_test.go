package mpichv_test

import (
	"bytes"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// mdLink matches inline markdown links; mdRef matches the "file.go:NN"
// cross-reference convention ARCHITECTURE.md uses for code anchors;
// mdNamedRef matches such an anchor directly after a backticked Go
// identifier ("`Node.Send` ([node.go:NN](...))"), which names the
// declaration the anchor must land on.
var (
	mdLink     = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)
	mdRef      = regexp.MustCompile(`\[([\w./-]+\.go):(\d+)\]\(([^)\s]+)\)`)
	mdNamedRef = regexp.MustCompile("`([A-Za-z_][\\w.]*)`\\s*\\(?\\[([\\w./-]+\\.go):(\\d+)\\]\\(([^)\\s]+)\\)")
)

// namedDocs are the living documents whose identifier-named anchors must
// land on the declaration they name; CHANGES.md is a dated log whose
// anchors describe the code of their own time.
var namedDocs = map[string]bool{"README.md": true, "ARCHITECTURE.md": true, "ROADMAP.md": true}

// TestMarkdownLinks is the docs link checker: every relative link in the
// operator-facing markdown must resolve to a file in the repository, and
// every file.go:line cross-reference must name an existing file with at
// least that many lines. It keeps ARCHITECTURE.md's code anchors from
// rotting as the code moves.
func TestMarkdownLinks(t *testing.T) {
	for _, doc := range []string{"README.md", "ARCHITECTURE.md", "ROADMAP.md", "CHANGES.md"} {
		doc := doc
		t.Run(doc, func(t *testing.T) {
			data, err := os.ReadFile(doc)
			if err != nil {
				t.Fatalf("required doc missing: %v", err)
			}
			for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
				target := m[1]
				if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
					continue // external; not checked offline
				}
				target = strings.SplitN(target, "#", 2)[0]
				if target == "" {
					continue // pure in-page anchor
				}
				if _, err := os.Stat(target); err != nil {
					t.Errorf("%s: dead link %q", doc, m[0])
				}
			}
			for _, m := range mdRef.FindAllStringSubmatch(string(data), -1) {
				file, lineStr, target := m[1], m[2], m[3]
				if !strings.HasSuffix(target, file) {
					t.Errorf("%s: ref %q links to %q, not to the named file", doc, m[0], target)
					continue
				}
				src, err := os.ReadFile(target)
				if err != nil {
					t.Errorf("%s: ref %q: %v", doc, m[0], err)
					continue
				}
				line, _ := strconv.Atoi(lineStr)
				if n := bytes.Count(src, []byte("\n")) + 1; line > n {
					t.Errorf("%s: ref %q points past end of %s (%d lines)", doc, m[0], target, n)
				}
			}
			if !namedDocs[doc] {
				return
			}
			for _, m := range mdNamedRef.FindAllStringSubmatch(string(data), -1) {
				ident, lineStr, target := m[1], m[3], m[4]
				src, err := os.ReadFile(target)
				if err != nil {
					continue // reported above
				}
				line, _ := strconv.Atoi(lineStr)
				if !landsOnDecl(strings.Split(string(src), "\n"), ident, line) {
					t.Errorf("%s: ref %q does not land on the declaration of %s or its doc comment", doc, strings.Join(strings.Fields(m[0]), " "), ident)
				}
			}
		})
	}
}

// landsOnDecl reports whether 1-based line of lines is the declaration of
// ident ("Name", "Type.Method" or "pkg.Name") or part of the doc comment
// directly above it.
func landsOnDecl(lines []string, ident string, line int) bool {
	recv, name := "", ident
	if i := strings.LastIndexByte(ident, '.'); i >= 0 {
		recv, name = ident[:i], ident[i+1:]
		if recv != "" && recv[0] >= 'a' && recv[0] <= 'z' {
			recv = "" // package qualifier
		}
	}
	q := regexp.QuoteMeta(name)
	decl := regexp.MustCompile(`^(func (\(\w+ [^)]*\) )?` + q + `[\[(]|type ` + q + `\b|(var|const) ` + q + `\b|\t` + q + `\b.*=)`)
	if recv != "" {
		decl = regexp.MustCompile(`^func \(\w+ \*?` + regexp.QuoteMeta(recv) + `(\[[^\]]*\])?\) ` + q + `[\[(]`)
	}
	for d, text := range lines {
		if !decl.MatchString(text) {
			continue
		}
		top := d
		for top > 0 && strings.HasPrefix(strings.TrimSpace(lines[top-1]), "//") {
			top--
		}
		if line-1 >= top && line-1 <= d {
			return true
		}
	}
	return false
}
