// Machine-readable diagnostic output: the `-json` mode of `activego
// vet`. The schema matches cmd/detlint's writer — one flat array of
// {file, line, col, code, severity, message} objects — so one consumer
// script handles both linter tiers. Mini-language diagnostics are
// line-granular; col is always 0 here.
package analysis

import (
	"encoding/json"
	"io"
)

// FileDiagnostic pairs a diagnostic with the file (or pseudo-file, e.g.
// `workload:tpch-6`) it was found in.
type FileDiagnostic struct {
	File string
	Diag Diagnostic
}

type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Code     string `json:"code"`
	Severity string `json:"severity"`
	Message  string `json:"message"`
}

// WriteJSON renders diags as an indented JSON array. A clean run writes
// `[]`, never null, so consumers can always range over the result.
func WriteJSON(w io.Writer, diags []FileDiagnostic) error {
	out := make([]jsonDiag, 0, len(diags))
	for _, fd := range diags {
		out = append(out, jsonDiag{
			File:     fd.File,
			Line:     fd.Diag.Line,
			Code:     fd.Diag.Code,
			Severity: fd.Diag.Severity.String(),
			Message:  fd.Diag.Msg,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
