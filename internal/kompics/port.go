package kompics

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
)

// PortType is the "service specification" of a port: it declares which
// event types may travel as indications and which as requests. Event types
// may be concrete types or interface types; an interface type admits every
// implementation (the paper's "subtypes").
//
// Declare interface types with a nil pointer, e.g.
//
//	pt.Indication((*Msg)(nil))
//
// and concrete types with a zero value, e.g. pt.Request(Ping{}).
type PortType struct {
	name        string
	indications []reflect.Type
	requests    []reflect.Type
}

// NewPortType creates an empty port type with a diagnostic name.
func NewPortType(name string) *PortType {
	return &PortType{name: name}
}

// Name returns the diagnostic name of the port type.
func (pt *PortType) Name() string { return pt.name }

// Indication declares that events of proto's type flow from the provider.
// It returns pt for chaining.
func (pt *PortType) Indication(proto Event) *PortType {
	pt.indications = append(pt.indications, eventType(proto))
	return pt
}

// Request declares that events of proto's type flow towards the provider.
// It returns pt for chaining.
func (pt *PortType) Request(proto Event) *PortType {
	pt.requests = append(pt.requests, eventType(proto))
	return pt
}

// Allows reports whether event e may travel in direction d.
func (pt *PortType) Allows(d Direction, e Event) bool {
	return pt.allowsType(d, reflect.TypeOf(e))
}

// allowsType reports whether events of type t may travel in direction d:
// t is a declared type of d, or implements a declared interface. t may
// itself be an interface type, as a Subscribe prototype declares.
func (pt *PortType) allowsType(d Direction, t reflect.Type) bool {
	var declared []reflect.Type
	switch d {
	case Indication:
		declared = pt.indications
	case Request:
		declared = pt.requests
	}
	for _, dt := range declared {
		if typeMatches(t, dt) {
			return true
		}
	}
	return false
}

// eventType resolves the declared type of a prototype value. A nil pointer
// to an interface declares the interface type itself.
func eventType(proto Event) reflect.Type {
	t := reflect.TypeOf(proto)
	if t == nil {
		panic("kompics: cannot declare untyped nil as an event type")
	}
	if t.Kind() == reflect.Ptr && t.Elem().Kind() == reflect.Interface {
		return t.Elem()
	}
	return t
}

// typeMatches reports whether event type t satisfies declared type dt
// (equality, or interface implementation).
func typeMatches(t, dt reflect.Type) bool {
	if t == dt {
		return true
	}
	if dt.Kind() == reflect.Interface {
		return t.Implements(dt)
	}
	return false
}

// Port is a runtime port instance owned by a component. A provided port is
// the service side: its owner triggers indications and handles requests.
// A required port is the client side: its owner triggers requests and
// handles indications.
type Port struct {
	owner    *Component
	ptype    *PortType
	provided bool

	// channels is a copy-on-write list: publish loads it without a lock
	// or a copy; addChannel/removeChannel build a new list under mu and
	// swap it in.
	mu       sync.Mutex
	channels atomic.Pointer[[]*Channel]
}

// Type returns the port's PortType.
func (p *Port) Type() *PortType { return p.ptype }

// IsProvided reports whether this is the providing side of the port.
func (p *Port) IsProvided() bool { return p.provided }

// Owner returns the component that owns this port.
func (p *Port) Owner() *Component { return p.owner }

// outgoing returns the direction in which the owner sends on this port.
func (p *Port) outgoing() Direction {
	if p.provided {
		return Indication
	}
	return Request
}

// incoming returns the direction in which the owner receives on this port.
func (p *Port) incoming() Direction {
	if p.provided {
		return Request
	}
	return Indication
}

// connected returns the current channel list. Callers must not modify it.
func (p *Port) connected() []*Channel {
	if cs := p.channels.Load(); cs != nil {
		return *cs
	}
	return nil
}

func (p *Port) addChannel(c *Channel) {
	p.mu.Lock()
	defer p.mu.Unlock()
	old := p.connected()
	next := append(old[:len(old):len(old)], c) // capped: always a fresh array
	p.channels.Store(&next)
}

func (p *Port) removeChannel(c *Channel) {
	p.mu.Lock()
	defer p.mu.Unlock()
	old := p.connected()
	for i, ch := range old {
		if ch == c {
			next := append(old[:i:i], old[i+1:]...)
			p.channels.Store(&next)
			return
		}
	}
}

// publish sends e on every channel connected to this port, in the
// direction the owner is allowed to send.
func (p *Port) publish(e Event) {
	dir := p.outgoing()
	if !p.ptype.allowsType(dir, reflect.TypeOf(e)) {
		panic(fmt.Sprintf("kompics: event %T is not a declared %s of port type %q",
			e, dir, p.ptype.name))
	}
	for _, c := range p.connected() {
		c.forward(p, e)
	}
}

// deliver enqueues e at this port for handling by the owner component.
func (p *Port) deliver(e Event) {
	p.owner.enqueue(p, e)
}
