//go:build race

package icilk

const raceEnabled = true
