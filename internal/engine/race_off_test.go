//go:build !race

package engine_test

// raceEnabled reports whether the race detector instruments this build.
// sync.Pool intentionally drops items under the race detector, so
// allocation-count assertions over pooled scratch only hold without it.
const raceEnabled = false
