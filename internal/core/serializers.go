package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"net/netip"
	"sync"

	"github.com/kompics/kompicsmessaging-go/internal/codec"
)

// Serializer IDs reserved by the middleware; applications should register
// their own serialisers at IDs ≥ 16.
const (
	// SerializerIDDataMsg identifies the built-in DataMsg serialiser.
	SerializerIDDataMsg codec.SerializerID = 1
	// FirstApplicationSerializerID is the lowest ID free for applications.
	FirstApplicationSerializerID codec.SerializerID = 16
)

// WriteAddress encodes an Address (IP, port) for wire headers: the IP in
// its 16-byte form, as net.IP.To16 gives it, then the port.
func WriteAddress(w io.Writer, a Address) error {
	addr, ok := netip.AddrFromSlice(a.IP())
	if !ok {
		return fmt.Errorf("core: address %v has no IP form", a)
	}
	// The 16-byte form is a stack array; it must only reach concrete
	// writers, or it escapes and costs an allocation per call.
	ip := addr.As16()
	bb, ok := w.(*bytes.Buffer)
	if !ok {
		return writeAddressTo(w, ip, a.Port())
	}
	bb.WriteByte(net.IPv6len) // the uvarint length prefix, one byte
	bb.Write(ip[:])
	return codec.WriteUvarint(bb, uint64(a.Port()))
}

// writeAddressTo is WriteAddress for writers other than *bytes.Buffer;
// its copy of the IP escapes through the io.Writer.
func writeAddressTo(w io.Writer, ip [net.IPv6len]byte, port int) error {
	if err := codec.WriteBytes(w, ip[:]); err != nil {
		return err
	}
	return codec.WriteUvarint(w, uint64(port))
}

// ReadAddress decodes an address written by WriteAddress. An IP longer
// than 16 bytes is refused before anything is allocated for it.
func ReadAddress(r io.Reader) (BasicAddress, error) {
	n, err := codec.ReadUvarint(r)
	if err != nil {
		return BasicAddress{}, err
	}
	if n > net.IPv6len {
		return BasicAddress{}, fmt.Errorf("core: IP length %d out of range", n)
	}
	ip := make(net.IP, n)
	if _, err := io.ReadFull(r, ip); err != nil {
		return BasicAddress{}, err
	}
	port, err := codec.ReadUvarint(r)
	if err != nil {
		return BasicAddress{}, err
	}
	if port > 65535 {
		return BasicAddress{}, fmt.Errorf("core: port %d out of range", port)
	}
	// ip is already a private copy, so the defensive duplication in
	// NewAddress would be a second allocation for every decoded address.
	return BasicAddress{ip: ip, port: int(port)}, nil
}

// qosFlag marks a header whose protocol field is followed by a QoS
// annotation. Transport values (1–4) fit in three bits, so bit 3 of the
// protocol uvarint is free: a zero-QoS header encodes byte-identically to
// the pre-QoS format, and a pre-QoS decoder reading an unflagged header
// sees exactly what it always saw — the annotation is strictly additive.
const qosFlag = 0x8

// WriteBasicHeader encodes a BasicHeader.
func WriteBasicHeader(w io.Writer, h BasicHeader) error {
	if err := WriteAddress(w, h.Src); err != nil {
		return err
	}
	if err := WriteAddress(w, h.Dst); err != nil {
		return err
	}
	if h.QoS.IsZero() {
		return codec.WriteUvarint(w, uint64(h.Proto))
	}
	if err := codec.WriteUvarint(w, uint64(h.Proto)|qosFlag); err != nil {
		return err
	}
	if err := codec.WriteUvarint(w, uint64(h.QoS.Class)); err != nil {
		return err
	}
	if err := codec.WriteString(w, h.QoS.Key); err != nil {
		return err
	}
	return codec.WriteVarint(w, h.QoS.Deadline)
}

// ReadBasicHeader decodes a header written by WriteBasicHeader. Its
// addresses come from a process-wide cache (readCachedAddress), so a
// header from a known peer decodes without allocating.
func ReadBasicHeader(r io.Reader) (BasicHeader, error) {
	src, err := readCachedAddress(r)
	if err != nil {
		return BasicHeader{}, err
	}
	dst, err := readCachedAddress(r)
	if err != nil {
		return BasicHeader{}, err
	}
	proto, err := codec.ReadUvarint(r)
	if err != nil {
		return BasicHeader{}, err
	}
	h := BasicHeader{Src: src, Dst: dst, Proto: Transport(proto &^ qosFlag)}
	if !h.Proto.Valid() {
		return BasicHeader{}, fmt.Errorf("core: invalid transport %d on wire", proto&^qosFlag)
	}
	if proto&qosFlag == 0 {
		return h, nil
	}
	class, err := codec.ReadUvarint(r)
	if err != nil {
		return BasicHeader{}, err
	}
	if !QoSClass(class).Valid() {
		return BasicHeader{}, fmt.Errorf("core: invalid QoS class %d on wire", class)
	}
	key, err := codec.ReadString(r)
	if err != nil {
		return BasicHeader{}, err
	}
	deadline, err := codec.ReadVarint(r)
	if err != nil {
		return BasicHeader{}, err
	}
	h.QoS = QoS{Class: QoSClass(class), Key: key, Deadline: deadline}
	return h, nil
}

// maxAddrCache bounds the decoded-address cache; past it the cache
// resets, trading one decode allocation per address for a bounded
// footprint under address churn (the same shape as wireDest's cache).
const maxAddrCache = 1 << 12

// addrCache maps a decoded (IP, port) to its boxed BasicAddress. Sharing
// one box among all the messages from a peer is safe because addresses
// are immutable: Address.IP's slice must not be mutated.
var addrCache struct {
	mu sync.RWMutex //kmlint:guarded
	m  map[netip.AddrPort]Address
}

// readCachedAddress decodes what ReadAddress decodes, as a cached box.
// The common shape — a 16-byte IP read from a *bytes.Reader — is read
// from the stack; anything else (another reader, another IP length, a
// short or bad input) rewinds where it can and takes ReadAddress, so
// results and errors are ReadAddress's own.
func readCachedAddress(r io.Reader) (Address, error) {
	br, ok := r.(*bytes.Reader)
	if !ok {
		return readAddressBoxed(r)
	}
	start := br.Size() - int64(br.Len())
	var ip [net.IPv6len]byte
	if n, err := binary.ReadUvarint(br); err == nil && n == net.IPv6len {
		if k, _ := br.Read(ip[:]); k == net.IPv6len {
			if port, err := binary.ReadUvarint(br); err == nil && port <= math.MaxUint16 {
				return cachedAddress(netip.AddrPortFrom(netip.AddrFrom16(ip), uint16(port))), nil
			}
		}
	}
	br.Seek(start, io.SeekStart)
	return readAddressBoxed(br)
}

func readAddressBoxed(r io.Reader) (Address, error) {
	a, err := ReadAddress(r)
	if err != nil {
		return nil, err
	}
	return a, nil
}

// cachedAddress returns the shared box for ap, creating it on a miss.
func cachedAddress(ap netip.AddrPort) Address {
	addrCache.mu.RLock()
	a, ok := addrCache.m[ap]
	addrCache.mu.RUnlock()
	if ok {
		return a
	}
	ip := ap.Addr().As16()
	a = BasicAddress{ip: net.IP(ip[:]), port: int(ap.Port())}
	addrCache.mu.Lock()
	if addrCache.m == nil || len(addrCache.m) >= maxAddrCache {
		addrCache.m = make(map[netip.AddrPort]Address)
	}
	addrCache.m[ap] = a
	addrCache.mu.Unlock()
	return a
}

// DataMsgSerializer is the wire codec for DataMsg.
type DataMsgSerializer struct{}

var _ codec.Serializer = DataMsgSerializer{}

// ID implements codec.Serializer.
func (DataMsgSerializer) ID() codec.SerializerID { return SerializerIDDataMsg }

// Serialize implements codec.Serializer.
func (DataMsgSerializer) Serialize(w io.Writer, v interface{}) error {
	m, ok := v.(*DataMsg)
	if !ok {
		return fmt.Errorf("core: DataMsgSerializer cannot encode %T", v)
	}
	if err := WriteBasicHeader(w, m.Hdr); err != nil {
		return err
	}
	return codec.WriteBytes(w, m.Payload)
}

// Deserialize implements codec.Serializer.
func (DataMsgSerializer) Deserialize(r io.Reader) (interface{}, error) {
	hdr, err := ReadBasicHeader(r)
	if err != nil {
		return nil, err
	}
	payload, err := codec.ReadBytes(r)
	if err != nil {
		return nil, err
	}
	return &DataMsg{Hdr: hdr, Payload: payload}, nil
}

// NewRegistry returns a codec registry preloaded with the middleware's
// built-in serialisers.
func NewRegistry() *codec.Registry {
	var reg codec.Registry
	reg.MustRegister(DataMsgSerializer{}, (*DataMsg)(nil))
	return &reg
}
