//go:build race

package hom

// raceEnabled reports a -race build.
const raceEnabled = true
