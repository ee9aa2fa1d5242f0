//go:build race

package karousos_test

func init() { raceEnabled = true }
