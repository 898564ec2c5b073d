// Package netx abstracts the overlay's transport substrate: the live stack
// dials and listens through a Network, which is backed either by the real
// TCP stack or by an in-memory virtual network with per-link latency,
// jitter and failure injection (in the spirit of pion's vnet). Swapping the
// backing — together with a virtual clock from internal/clock — turns the
// real node code into a deterministic, millisecond-fast cluster scenario.
package netx

import "net"

// Network provides listeners and outbound connections. Implementations
// return net.Listener / net.Conn so protocol code is written once against
// the standard interfaces.
type Network interface {
	// Listen opens a listener on addr ("host:port"; port 0 or an empty
	// address picks one).
	Listen(addr string) (net.Listener, error)
	// Dial opens a stream connection to addr.
	Dial(addr string) (net.Conn, error)
}

// System is the real TCP network.
var System Network = TCP{}

// TCP implements Network over the operating system's TCP stack.
type TCP struct{}

// Listen opens a real TCP listener; an empty addr means "127.0.0.1:0".
func (TCP) Listen(addr string) (net.Listener, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	return net.Listen("tcp", addr)
}

// Dial opens a real TCP connection.
func (TCP) Dial(addr string) (net.Conn, error) {
	return net.Dial("tcp", addr)
}

// Or returns n, or the real TCP network when n is nil — the idiom for
// optional Network fields in configuration structs.
func Or(n Network) Network {
	if n == nil {
		return System
	}
	return n
}
