//go:build !race

package local

const raceEnabled = false
