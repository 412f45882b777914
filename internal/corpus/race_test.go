//go:build race

package corpus

// raceEnabled reports a -race build, whose sync.Pool drops a share of what
// is put back so that misuse shows.
const raceEnabled = true
