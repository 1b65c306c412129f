// Package udt is a from-scratch userspace implementation of UDT — the
// UDP-based Data Transfer protocol (Gu & Grossman, Computer Networks 2007)
// — providing reliable, ordered byte streams over UDP sockets with
// rate-based congestion control.
//
// The paper's JVM implementation used Netty's UDT transport (the Barchart
// native library); Go has no UDT implementation, so this package builds
// the protocol itself using only net.UDPConn. It implements the parts of
// UDT that give it its characteristic behaviour on high
// bandwidth-delay-product paths:
//
//   - selective retransmission driven by NAKs: the receiver reports loss
//     ranges immediately on gap detection, and the sender retransmits
//     from its loss list with priority;
//   - periodic cumulative ACKs (every 10 ms SYN interval) rather than
//     per-packet ACKs, plus a light ACK every 32 in-order packets while a
//     connection starts up;
//   - UDT4's slow start: an unpaced sender bounded by a congestion window
//     that grows by every packet an ACK acknowledges, clocked by the light
//     ACKs, until the first loss;
//   - DAIMD rate control after it: the sending rate, seeded from the
//     window, grows additively per loss-free ACK and decreases
//     multiplicatively (×8/9) on NAK — decoupling throughput from RTT,
//     which is precisely why UDT holds its rate on long fat paths where
//     TCP's window/RTT coupling collapses;
//   - window-based flow control with the receiver advertising its buffer
//     space in every ACK (the paper tuned these buffers from 12 MB to
//     100 MB for high-BDP links; they are configurable here);
//   - connection handshake and shutdown control packets.
//
// Simplifications relative to the UDT4 specification, documented for
// honesty: no ACK2 (RTT is not needed by the simplified rate controller),
// no bandwidth-estimation packet pairs (the additive increase is a fixed
// per-SYN step), timestamps are omitted from the packet header, and a
// single UDT connection runs per UDP address pair on the listener side.
//
// Being userspace, each connection's control loop (one goroutine that
// paces the sender and runs the ACK, NAK, EXP and keep-alive timers on
// one ticker) and the datagram read loop share Go's processors with the
// rest of the process: each yields after every full burst or batch
// instead of holding a processor for as long as a stream flows.
//
// Conn implements net.Conn, so the transport layer can treat TCP and UDT
// streams uniformly.
package udt
