//go:build race

package compile

const raceEnabled = true
