package wire

import "fmt"

// Class is a message's quality-of-service class — the coarse "what kind
// of traffic is this" annotation. A class does two things in the
// transport's pending queue: it scopes coalescing (a key only replaces a
// queued message of the same class) and it splits the drop counters. It
// does not change shedding order or priority. The zero value is
// ClassReliable, so messages that never mention QoS keep today's
// semantics.
type Class uint8

// The QoS classes. The set is deliberately small (goal-oriented
// transport filtering distinguishes exactly these regimes): reliable
// traffic is the default at-most-once stream, control traffic is the
// protocol's own, telemetry is value-of-update state where a newer
// reading supersedes an older one.
const (
	// ClassReliable is the default: ordinary at-most-once messages.
	ClassReliable Class = iota
	// ClassControl marks protocol/control traffic (handshakes, acks,
	// membership), counted apart from application traffic.
	ClassControl
	// ClassTelemetry marks value-of-update state (sensor readings,
	// state-sync deltas) where freshness beats completeness.
	ClassTelemetry

	// NumClasses sizes per-class accounting arrays.
	NumClasses = 3
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassReliable:
		return "reliable"
	case ClassControl:
		return "control"
	case ClassTelemetry:
		return "telemetry"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Valid reports whether c is a declared class.
func (c Class) Valid() bool { return c < NumClasses }

// QoS is the compact per-message annotation carried from the header
// through the codec stage into the transport's pending entry. The zero
// value means "no annotation" and encodes to exactly the pre-QoS wire
// format, so old and new peers interoperate.
type QoS struct {
	// Class selects the traffic class (default ClassReliable).
	Class Class
	// Key is the optional application key for latest-value-wins
	// coalescing: while queued, a newer update for the same key replaces
	// an older one. Empty means "never coalesce this message".
	Key string
	// Deadline is the optional absolute expiry in Unix nanoseconds
	// (0 = none). A message still queued past its deadline is dropped
	// instead of written.
	Deadline int64
}

// IsZero reports whether q carries no annotation at all.
func (q QoS) IsZero() bool { return q == QoS{} }
