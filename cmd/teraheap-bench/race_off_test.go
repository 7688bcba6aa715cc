//go:build !race

package main

// raceEnabled reports whether the race detector is compiled in. The
// golden test skips under it: its property is byte-identical replay,
// which the detector adds nothing to, at about ten times the cost.
const raceEnabled = false
