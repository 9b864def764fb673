//go:build race

package nmad

// raceEnabled reports a -race build, whose sync.Pool drops recycled
// objects at random: allocation counts are not fixed there.
const raceEnabled = true
