//go:build race

package cp

const raceEnabled = true
