//go:build race

package transport

// raceEnabled reports a -race build, whose sync.Pool drops buffers at
// random: a pooled path allocates there, so allocation guards over one
// are skipped.
const raceEnabled = true
