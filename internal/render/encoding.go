package render

import (
	"errors"
	"fmt"
	"io"
	"slices"

	"nanometer/internal/result"
)

// The errors NewEncoding returns. Callers word them for their own input
// syntax (command-line flags, query parameters).
var (
	ErrUnknownFormat = errors.New("render: unknown format (want text, json, or csv)")
	ErrTextOnly      = errors.New("render: text settings only apply to the text format")
)

// Encoding is an output format chosen once by name — "text", "json" or
// "csv" — together with the text format's settings. It is the one place a
// format name turns into an encoder: the CLI's report and trace output and
// every daemon response go through it.
type Encoding struct {
	format string
	// Text holds the text format's settings (zero for the other formats).
	Text Text
}

// NewEncoding maps a format name to its encoding. Any text setting given
// with another format is ErrTextOnly.
func NewEncoding(format string, text Text) (Encoding, error) {
	switch {
	case format != "text" && format != "json" && format != "csv":
		return Encoding{}, ErrUnknownFormat
	case format != "text" && text != (Text{}):
		return Encoding{}, ErrTextOnly
	}
	return Encoding{format: format, Text: text}, nil
}

// Format returns the encoding's format name.
func (e Encoding) Format() string { return e.format }

// Encode writes one result as its own document; JSON writes the bare
// result.
func (e Encoding) Encode(w io.Writer, res *result.Result) error {
	switch e.format {
	case "json":
		return JSON{Indent: "  "}.Encode(w, res)
	case "csv":
		return CSV{}.Encode(w, res)
	default:
		return e.Text.Encode(w, res)
	}
}

// EncodeReport writes a run's results in order, skipping nil slots (the
// artifacts whose compute failed). JSON writes one {"artifacts": [...]}
// document. Text and CSV write artifact by artifact: a failed artifact
// keeps its partial output and does not stop the ones after it, and the
// failures come back joined, each named by its artifact ID.
func (e Encoding) EncodeReport(w io.Writer, results []*result.Result) error {
	if e.format == "json" {
		// The report holds a copy, so results itself does not escape: a
		// one-result report keeps its slice on the caller's stack.
		arts := slices.DeleteFunc(slices.Clone(results), func(r *result.Result) bool { return r == nil })
		if len(arts) == 0 {
			arts = nil // a run with no results encodes "artifacts": null
		}
		return JSON{Indent: "  "}.EncodeReport(w, &result.Report{Artifacts: arts})
	}
	var errs []error
	for _, res := range results {
		if res == nil {
			continue
		}
		if err := e.Encode(w, res); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", res.ID, err))
		}
	}
	return errors.Join(errs...)
}
