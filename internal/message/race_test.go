//go:build race

package message

func init() { raceEnabled = true }
