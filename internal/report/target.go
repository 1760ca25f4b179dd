// Package report is the shared -report grammar and rendering layer of
// the CLIs: one Target parser (stdout keywords and extension-dispatched
// paths), one JSON envelope for sweep results (byte-compatible with the
// envelopes the sweep CLIs used to write by hand), and a
// self-contained single-file HTML renderer — inline CSS, inline SVG, no
// external fetches — so a report artifact can be mailed, archived, or
// attached to CI without a web server.
package report

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Format selects a report rendering.
type Format int

// Supported formats. FormatNone is the zero value: reporting disabled.
const (
	FormatNone Format = iota
	FormatJSON
	FormatCSV
	FormatHTML
)

// String names the format for messages.
func (f Format) String() string {
	switch f {
	case FormatJSON:
		return "json"
	case FormatCSV:
		return "csv"
	case FormatHTML:
		return "html"
	default:
		return "none"
	}
}

// Target is one parsed -report destination: a format plus an optional
// file path (empty = stdout).
type Target struct {
	Format Format
	// Path is the output file; "" writes to stdout.
	Path string
}

// ParseTarget resolves the -report flag grammar shared by the CLIs:
//
//	""            → reporting disabled
//	"csv"         → CSV to stdout
//	"json"        → JSON to stdout
//	"html"        → HTML to stdout
//	anything else → a file path, dispatched on extension:
//	                .csv → CSV, .html/.htm → HTML, else JSON
func ParseTarget(s string) Target {
	switch strings.ToLower(s) {
	case "":
		return Target{}
	case "csv":
		return Target{Format: FormatCSV}
	case "json":
		return Target{Format: FormatJSON}
	case "html":
		return Target{Format: FormatHTML}
	}
	t := Target{Format: FormatJSON, Path: s}
	switch strings.ToLower(filepath.Ext(s)) {
	case ".csv":
		t.Format = FormatCSV
	case ".html", ".htm":
		t.Format = FormatHTML
	}
	return t
}

// Enabled reports whether any report was requested.
func (t Target) Enabled() bool { return t.Format != FormatNone }

// Stdout reports whether the target writes to standard output.
func (t Target) Stdout() bool { return t.Enabled() && t.Path == "" }

// ForSpec derives a per-spec file target from this one — the -spec-dir
// form, where one -report flag yields one artifact per scenario file:
// "out.html" and "e3-resilience.yaml" become "out-e3-resilience.html".
// Stdout targets are returned unchanged (the documents just stream in
// directory order).
func (t Target) ForSpec(specPath string) Target {
	if !t.Enabled() || t.Path == "" {
		return t
	}
	stem := strings.TrimSuffix(filepath.Base(specPath), filepath.Ext(specPath))
	ext := filepath.Ext(t.Path)
	return Target{
		Format: t.Format,
		Path:   strings.TrimSuffix(t.Path, ext) + "-" + stem + ext,
	}
}

// Document is anything renderable to every report format. The sweep
// envelope below implements it; dyna run's batch report implements it
// with its own JSON shape.
type Document interface {
	WriteJSON(w io.Writer) error
	WriteCSV(w io.Writer) error
	WriteHTML(w io.Writer) error
}

// Write renders doc to the target: nothing for a disabled target,
// stdout for the keyword forms, a created file otherwise.
func (t Target) Write(doc Document) error {
	if !t.Enabled() {
		return nil
	}
	render := doc.WriteJSON
	switch t.Format {
	case FormatCSV:
		render = doc.WriteCSV
	case FormatHTML:
		render = doc.WriteHTML
	}
	if t.Path == "" {
		return render(os.Stdout)
	}
	f, err := os.Create(t.Path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", t.Path, err)
	}
	return f.Close()
}
