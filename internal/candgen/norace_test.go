//go:build !race

package candgen

const raceEnabled = false
