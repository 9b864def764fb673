//go:build !race

package nmad

const raceEnabled = false
