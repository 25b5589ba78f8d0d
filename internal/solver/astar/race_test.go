//go:build race

package astar

const raceEnabled = true
