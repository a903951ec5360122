// Package driver is a detlint fixture: a "deterministic" package (final
// segment matches the serving driver's) keeping mutable package-level
// state. DL006 must fire on every write in SetCache, Bump, Remember and
// the reset closure, and stay silent on init, on locals and on reads.
package driver

var (
	cache map[string]int
	hits  int
	limit = 4
)

// init may build package state: it runs once, before any caller.
func init() {
	cache = map[string]int{}
}

// SetCache swaps the shared cache: the anti-pattern.
func SetCache(c map[string]int) map[string]int {
	prev := cache
	cache = c
	return prev
}

// Bump counts into package state with ++ and an op-assignment.
func Bump() {
	hits++
	limit += 2
}

// Remember stores into a package-level map; the local map, the local
// counter and the reads are fine.
func Remember(k string) int {
	cache[k] = hits
	local := map[string]int{}
	local[k] = limit
	n := hits
	n++
	return n + local[k]
}

// reset writes package state from a function literal.
var reset = func() { hits = 0 }
