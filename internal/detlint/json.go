// Machine-readable diagnostics. The schema matches the mini-language
// linter's `-json` output (internal/analysis) so tooling can consume
// both tiers with one decoder.
package detlint

import (
	"encoding/json"
	"io"
)

// jsonDiag is the wire shape of one diagnostic. Severity is always
// "error"; the field keeps the mini-language linter's shape.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Code     string `json:"code"`
	Severity string `json:"severity"`
	Message  string `json:"message"`
}

// WriteJSON renders diags as an indented JSON array (never null: an
// empty run encodes as []).
func WriteJSON(w io.Writer, diags []Diagnostic) error {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiag{
			File:     d.File,
			Line:     d.Line,
			Col:      d.Col,
			Code:     d.Code,
			Severity: "error",
			Message:  d.Msg,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
