//go:build !race

package astar

const raceEnabled = false
