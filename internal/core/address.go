package core

import (
	"bytes"
	"fmt"
	"net"
	"net/netip"
)

// Address identifies a network endpoint (listing 4 of the paper).
// Implementations may add richer identity — the vnet package adds a
// virtual-node ID — as long as these minimum features hold.
type Address interface {
	// IP returns the endpoint's IP address.
	IP() net.IP
	// Port returns the endpoint's port.
	Port() int
	// AsSocket renders the address as ip:port for dialing and listening.
	// It must depend on IP and Port alone: the Network caches the
	// rendering per (IP, port).
	AsSocket() string
	// SameHostAs reports whether other designates the same network host
	// (IP and port), ignoring any higher-level identity. The Network
	// component uses it to reflect local messages without serialisation.
	SameHostAs(other Address) bool
}

// BasicAddress is the default Address implementation: an IP and port.
// The zero value is not useful; construct with NewAddress.
type BasicAddress struct {
	ip   net.IP
	port int
}

var _ Address = BasicAddress{}

// NewAddress creates a BasicAddress. The ip slice is copied.
func NewAddress(ip net.IP, port int) BasicAddress {
	dup := make(net.IP, len(ip))
	copy(dup, ip)
	return BasicAddress{ip: dup, port: port}
}

// ParseAddress parses "ip:port" into a BasicAddress.
func ParseAddress(s string) (BasicAddress, error) {
	ap, err := netip.ParseAddrPort(s)
	if err != nil {
		return BasicAddress{}, fmt.Errorf("core: parse address %q: %w", s, err)
	}
	ip := ap.Addr().AsSlice()
	return NewAddress(ip, int(ap.Port())), nil
}

// MustParseAddress is ParseAddress that panics on error; for tests and
// wiring code with literal addresses.
func MustParseAddress(s string) BasicAddress {
	a, err := ParseAddress(s)
	if err != nil {
		panic(err)
	}
	return a
}

// IP implements Address. The returned slice must not be mutated.
func (a BasicAddress) IP() net.IP { return a.ip }

// Port implements Address.
func (a BasicAddress) Port() int { return a.port }

// AsSocket implements Address.
func (a BasicAddress) AsSocket() string {
	return net.JoinHostPort(a.ip.String(), fmt.Sprint(a.port))
}

// SameHostAs implements Address.
func (a BasicAddress) SameHostAs(other Address) bool {
	if other == nil {
		return false
	}
	return a.port == other.Port() && a.ip.Equal(other.IP())
}

// Equal reports whether two BasicAddresses are identical.
func (a BasicAddress) Equal(b BasicAddress) bool {
	return a.port == b.port && bytes.Equal(a.ip.To16(), b.ip.To16())
}

// String implements fmt.Stringer.
func (a BasicAddress) String() string { return a.AsSocket() }

// Key returns a map key uniquely identifying the host endpoint. Useful for
// channel registries.
func (a BasicAddress) Key() string { return a.AsSocket() }

// AddressKey normalises any Address into a registry key.
func AddressKey(a Address) string {
	return a.AsSocket()
}
