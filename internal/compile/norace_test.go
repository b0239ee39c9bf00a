//go:build !race

package compile

const raceEnabled = false
