//go:build race

package encode

const raceEnabled = true
