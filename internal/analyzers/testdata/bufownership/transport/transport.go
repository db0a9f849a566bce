// Package transport is a shape-faithful stand-in for the engine's
// internal/transport: the send methods consume payload ownership and
// Recv yields a Message whose Release must run at most once.
package transport

// Tag labels a message stream.
type Tag uint8

// Message is one received payload.
type Message struct {
	From    int
	To      int
	Payload []byte
}

// Release returns the payload to the pool.
func (m *Message) Release() { m.Payload = nil }

// Fabric carries the send/recv surface the analyzer matches by method
// name and arity.
type Fabric struct{}

func (f *Fabric) Send(to int, tag Tag, payload []byte)                  {}
func (f *Fabric) SendScaled(to int, tag Tag, payload []byte, r float64) {}
func (f *Fabric) SendSized(to int, tag Tag, payload []byte, billed int) {}
func (f *Fabric) Recv(from int, tag Tag) Message                        { return Message{} }
