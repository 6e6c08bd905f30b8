//go:build race

package compact

// raceEnabled reports a -race build.
const raceEnabled = true
