//go:build !race

package main

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = false
