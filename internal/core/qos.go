package core

import "github.com/kompics/kompicsmessaging-go/internal/wire"

// QoS is the per-message quality-of-service annotation (see
// internal/wire): a traffic class, an optional latest-value-wins key, and
// an optional absolute deadline. It is declared in the leaf wire package
// so the transport's pending queue and the core message types share one
// definition; core re-exports it the way it re-exports Transport.
type QoS = wire.QoS

// QoSClass is a message's traffic class.
type QoSClass = wire.Class

// The QoS classes, re-exported from internal/wire.
const (
	// ClassReliable is the default: ordinary at-most-once messages.
	ClassReliable = wire.ClassReliable
	// ClassControl marks protocol/control traffic. Like every class it
	// scopes coalescing and the per-class drop counters, nothing more.
	ClassControl = wire.ClassControl
	// ClassTelemetry marks value-of-update state where freshness beats
	// completeness.
	ClassTelemetry = wire.ClassTelemetry
)

// QoSCarrier is the optional Header extension for QoS-annotated
// messages. Like Header itself it is an interface, so applications with
// custom header types opt in by adding one method; headers that do not
// implement it get the zero QoS — exactly today's semantics.
type QoSCarrier interface {
	// MessageQoS returns the message's QoS annotation.
	MessageQoS() QoS
}

// HeaderQoS extracts h's QoS annotation, or the zero QoS when h does not
// carry one.
func HeaderQoS(h Header) QoS {
	if c, ok := h.(QoSCarrier); ok {
		return c.MessageQoS()
	}
	return QoS{}
}
