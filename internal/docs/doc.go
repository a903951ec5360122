// Package docs holds the repository's documentation-enforcement tests:
// every local link in the top-level Markdown files must resolve, every
// internal package must carry a "// Package ..." doc comment, and the
// series and metric tables in DESIGN.md §9 and §10 must match
// metrics.Catalogue() name for name, unit for unit. The package has no
// runtime code — it exists so that `go test ./...` keeps the prose
// honest.
package docs
