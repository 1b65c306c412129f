//go:build linux

package udt

import (
	"net"
	"syscall"
	"time"
	"unsafe"
)

// stampReads makes the kernel stamp every datagram c receives with its
// arrival time (SO_TIMESTAMPNS), for readStamped.
func stampReads(c *net.UDPConn) error {
	raw, err := c.SyscallConn()
	if err != nil {
		return err
	}
	var serr error
	if err := raw.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_TIMESTAMPNS, 1)
	}); err != nil {
		return err
	}
	return serr
}

// readStamped reads one datagram and returns when the kernel received it,
// however late the reader gets to it.
func readStamped(c *net.UDPConn, buf []byte) (int, time.Time, error) {
	var oob [128]byte
	n, oobn, _, _, err := c.ReadMsgUDP(buf, oob[:])
	if err != nil {
		return 0, time.Time{}, err
	}
	msgs, err := syscall.ParseSocketControlMessage(oob[:oobn])
	if err != nil {
		return 0, time.Time{}, err
	}
	for _, m := range msgs {
		var ts syscall.Timespec
		if m.Header.Level == syscall.SOL_SOCKET && m.Header.Type == syscall.SCM_TIMESTAMPNS &&
			len(m.Data) >= int(unsafe.Sizeof(ts)) {
			ts = *(*syscall.Timespec)(unsafe.Pointer(&m.Data[0]))
			return n, time.Unix(ts.Unix()), nil
		}
	}
	return 0, time.Time{}, syscall.ENOMSG
}
