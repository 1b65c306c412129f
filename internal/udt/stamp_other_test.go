//go:build !linux

package udt

import (
	"net"
	"time"
)

// stampReads is a no-op without kernel receive timestamps.
func stampReads(*net.UDPConn) error { return nil }

// readStamped reads one datagram and stamps it on return: without kernel
// receive timestamps a late reader stamps late.
func readStamped(c *net.UDPConn, buf []byte) (int, time.Time, error) {
	n, err := c.Read(buf)
	return n, time.Now(), err
}
