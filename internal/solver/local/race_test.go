//go:build race

package local

const raceEnabled = true
