// Package testnet finds loopback ports for tests and examples that boot
// real nodes, so parallel test binaries never collide on a fixed port.
package testnet

import (
	"errors"
	"fmt"
	"net"
)

// FreePort returns a port p with TCP and UDP unbound, at the moment of
// the call, on p through p+span-1. A node binds TCP and UDP on its port
// and UDT on port+1, so one node needs a span of 2.
func FreePort(span int) (int, error) {
	for try := 0; try < 100; try++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		p := l.Addr().(*net.TCPAddr).Port
		l.Close()
		if free(p, span) {
			return p, nil
		}
	}
	return 0, errors.New("testnet: no free loopback port range")
}

func free(p, span int) bool {
	if p+span > 65536 {
		return false
	}
	for q := p; q < p+span; q++ {
		if q > p { // p's TCP port was just probed
			l, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", q))
			if err != nil {
				return false
			}
			l.Close()
		}
		c, err := net.ListenPacket("udp", fmt.Sprintf("127.0.0.1:%d", q))
		if err != nil {
			return false
		}
		c.Close()
	}
	return true
}
