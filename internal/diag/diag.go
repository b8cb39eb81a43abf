// Package diag defines the structured diagnostic type shared by every
// compilation layer (lang, dep, syncop, tac) and aggregated by the pass
// manager (internal/passes).
//
// A Diagnostic carries the source position the lexer tracked for the
// offending token or statement, the originating stage, and — when the error
// surfaces downstream of the parser — the label of the source statement it
// belongs to. Before this type, positions died at the parser boundary:
// internal/tac could only report "statement S2: unsupported expression",
// with no way back to the source line.
package diag

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Pos is a source position. The zero value (line 0) means "unknown".
type Pos struct {
	Line, Col int
}

// IsValid reports whether the position is known.
func (p Pos) IsValid() bool { return p.Line > 0 }

// String renders the position in the repo's historical "line L col C" form.
func (p Pos) String() string {
	if !p.IsValid() {
		return "?"
	}
	var buf [64]byte
	return string(p.appendTo(buf[:0]))
}

// appendTo appends "line L col C" to b.
func (p Pos) appendTo(b []byte) []byte {
	b = append(b, "line "...)
	b = strconv.AppendInt(b, int64(p.Line), 10)
	b = append(b, " col "...)
	return strconv.AppendInt(b, int64(p.Col), 10)
}

// Severity grades a diagnostic.
type Severity int

// Severities.
const (
	// Error diagnostics abort the pipeline.
	Error Severity = iota
	// Warning diagnostics are collected but do not stop compilation (e.g.
	// conservative dependence assumptions).
	Warning
)

// String names the severity.
func (s Severity) String() string {
	switch s {
	case Error:
		return "error"
	case Warning:
		return "warning"
	}
	return fmt.Sprintf("Severity(%d)", int(s))
}

// Diagnostic is one structured error or warning with its source position.
// It implements the error interface, so existing call sites that thread
// plain errors keep working; errors.As recovers the structure.
type Diagnostic struct {
	// Stage is the originating compilation stage ("lang", "dep", "syncop",
	// "tac", ...). It doubles as the message prefix, preserving the
	// repo's historical "lang: line 3 col 7: ..." error format.
	Stage string
	// Severity grades the diagnostic; errors returned from passes are
	// Severity Error.
	Severity Severity
	// Pos is the source position of the offending token or statement.
	Pos Pos
	// Stmt is the label of the source statement the diagnostic belongs to
	// ("S2"), or "" when the diagnostic is not tied to one statement.
	Stmt string
	// Msg is the human-readable message without prefix or position.
	Msg string
}

// Error renders the diagnostic, matching the historical error formats:
//
//	lang: line 3 col 7: expected expression, found ...
//	tac: line 2 col 5: statement S2: unsupported expression ...
//	dep: statement S1: conservative dependence assumed ...   (no position)
func (d *Diagnostic) Error() string {
	// The text is sized first and built in one allocation; the position
	// renders into a stack buffer.
	var posBuf [64]byte
	var pos []byte
	if d.Pos.IsValid() {
		pos = d.Pos.appendTo(posBuf[:0])
	}
	n := len(d.Msg)
	if d.Stage != "" {
		n += len(d.Stage) + len(": ")
	}
	if pos != nil {
		n += len(pos) + len(": ")
	}
	if d.Stmt != "" {
		n += len("statement ") + len(d.Stmt) + len(": ")
	}
	if n == len(d.Msg) {
		return d.Msg
	}
	var sb strings.Builder
	sb.Grow(n)
	if d.Stage != "" {
		sb.WriteString(d.Stage)
		sb.WriteString(": ")
	}
	if pos != nil {
		sb.Write(pos)
		sb.WriteString(": ")
	}
	if d.Stmt != "" {
		sb.WriteString("statement ")
		sb.WriteString(d.Stmt)
		sb.WriteString(": ")
	}
	sb.WriteString(d.Msg)
	return sb.String()
}

// Errorf builds an Error-severity diagnostic.
func Errorf(stage string, pos Pos, format string, args ...any) *Diagnostic {
	return &Diagnostic{Stage: stage, Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// Warningf builds a Warning-severity diagnostic.
func Warningf(stage string, pos Pos, format string, args ...any) *Diagnostic {
	return &Diagnostic{Stage: stage, Severity: Warning, Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// FromPanic builds an Error diagnostic for a panic recovered in the named
// stage while processing the named request ("" when unknown). The stack is
// reduced to a short digest: full goroutine stacks are not stable across
// runs (addresses, goroutine ids), but the digest of their call-site lines
// is, so identical crash signatures aggregate while staying greppable.
func FromPanic(stage, request string, v any, stack []byte) *Diagnostic {
	msg := fmt.Sprintf("panic: %v [stack %s]", v, StackDigest(stack))
	if request != "" {
		msg = fmt.Sprintf("request %s: %s", request, msg)
	}
	return &Diagnostic{Stage: stage, Msg: msg}
}

// StackDigest hashes the call-site lines of a debug.Stack dump into a short
// stable signature. Lines carrying addresses, offsets or goroutine ids are
// normalized away so two panics from the same site share a digest.
func StackDigest(stack []byte) string {
	h := sha256.New()
	for _, line := range strings.Split(string(stack), "\n") {
		line = strings.TrimSpace(line)
		// Keep only function-name lines ("pkg.Func(...)"); file:line rows
		// carry hex offsets and goroutine headers carry ids.
		if line == "" || strings.HasPrefix(line, "goroutine ") {
			continue
		}
		if i := strings.IndexByte(line, '('); i > 0 {
			line = line[:i]
		} else if strings.Contains(line, ":") {
			continue
		}
		h.Write([]byte(line))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:12]
}

// WithStmt returns a copy of the diagnostic attributed to the labeled
// statement.
func (d *Diagnostic) WithStmt(label string) *Diagnostic {
	cp := *d
	cp.Stmt = label
	return &cp
}

// As extracts the structured diagnostic from an error chain, if present.
func As(err error) (*Diagnostic, bool) {
	var d *Diagnostic
	if errors.As(err, &d) {
		return d, true
	}
	return nil, false
}

// List is an ordered collection of diagnostics.
type List []*Diagnostic

// Errors returns the Error-severity subset.
func (l List) Errors() List {
	var out List
	for _, d := range l {
		if d.Severity == Error {
			out = append(out, d)
		}
	}
	return out
}

// Warnings returns the Warning-severity subset.
func (l List) Warnings() List {
	var out List
	for _, d := range l {
		if d.Severity == Warning {
			out = append(out, d)
		}
	}
	return out
}

// String renders one diagnostic per line ("severity: message").
func (l List) String() string {
	var sb strings.Builder
	for _, d := range l {
		fmt.Fprintf(&sb, "%s: %s\n", d.Severity, d.Error())
	}
	return sb.String()
}
