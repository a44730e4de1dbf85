//go:build !race

package encode

const raceEnabled = false
