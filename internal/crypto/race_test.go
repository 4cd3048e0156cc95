//go:build race

package crypto

func init() { raceEnabled = true }
