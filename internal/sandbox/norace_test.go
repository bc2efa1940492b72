//go:build !race

package sandbox

const raceEnabled = false
