//go:build !race

package parser

const raceEnabled = false
