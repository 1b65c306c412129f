//go:build !race

package codec

// raceEnabled reports a -race build, under which sync.Pool drops a share
// of its Puts on purpose and allocation counts mean nothing.
const raceEnabled = false
