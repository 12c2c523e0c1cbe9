//go:build race

package justintime

const raceEnabled = true
