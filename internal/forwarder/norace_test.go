//go:build !race

package forwarder

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
