//go:build race

package cgct

func init() { raceEnabled = true }
