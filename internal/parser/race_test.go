//go:build race

package parser

const raceEnabled = true
