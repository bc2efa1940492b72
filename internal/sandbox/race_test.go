//go:build race

package sandbox

// raceEnabled reports a -race build, where sync.Pool drops items at
// random and allocation counts that go through it are not exact.
const raceEnabled = true
