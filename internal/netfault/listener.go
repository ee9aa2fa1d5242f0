package netfault

import (
	"net"
	"sync"
	"time"
)

// Listener wraps a net.Listener so accepted connections consult the fault
// schedule — the server-side plug point: a collector serving through a
// faulted listener exhibits resets, stalls, and dropped connections to
// every client without either side's code changing. The match target is
// the remote address.
func (in *Injector) Listener(base net.Listener) net.Listener {
	return &faultListener{in: in, base: base}
}

type faultListener struct {
	in   *Injector
	base net.Listener
}

func (l *faultListener) Addr() net.Addr { return l.base.Addr() }
func (l *faultListener) Close() error   { return l.base.Close() }

func (l *faultListener) Accept() (net.Conn, error) {
	conn, err := l.base.Accept()
	if err != nil {
		return nil, err
	}
	a := l.in.Next(CallAccept, conn.RemoteAddr().String())
	if a == nil {
		return conn, nil
	}
	switch a.Op {
	case OpConnRefused, OpFlap:
		// Close before reading a byte: the client sees a reset/EOF on a
		// connection the handler never observed.
		conn.Close()
		return l.Accept()
	case OpConnReset:
		// Let the request arrive, then cut the line before the response:
		// read-side passthrough, write-side reset.
		return &resetConn{Conn: conn}, nil
	case OpBlackhole:
		// Swallow the connection: reads and writes stall until the cap.
		return &blackholeConn{Conn: conn, cap: l.in.maxBlock()}, nil
	case OpSlowResponse:
		return &slowConn{Conn: conn, delay: l.in.slowFor(a)}, nil
	case OpPartialBody:
		// Allow a sliver of the response out, then reset.
		return &resetConn{Conn: conn, allow: 64}, nil
	}
	return conn, nil
}

// resetConn passes reads through and resets writes after allow bytes
// (0 = reset immediately), so the handler executes but the client loses
// the response.
type resetConn struct {
	net.Conn
	allow   int
	written int
}

func (c *resetConn) Write(p []byte) (int, error) {
	if c.written >= c.allow {
		c.Conn.Close()
		return 0, &FaultError{Op: OpConnReset, Call: CallAccept, Target: c.RemoteAddr().String(), Forwarded: true, Err: net.ErrClosed}
	}
	n := len(p)
	if c.written+n > c.allow {
		n = c.allow - c.written
	}
	n, err := c.Conn.Write(p[:n])
	c.written += n
	if err != nil {
		return n, err
	}
	if c.written >= c.allow {
		c.Conn.Close()
	}
	return n, nil
}

// blackholeConn stalls the first read or write for the cap, then closes —
// the server-side view of a partition. once guards the stall because the
// http.Server reads in a background goroutine while the handler writes.
type blackholeConn struct {
	net.Conn
	cap  time.Duration
	once sync.Once
}

func (c *blackholeConn) stall() {
	c.once.Do(func() {
		time.Sleep(c.cap)
		c.Conn.Close()
	})
}

func (c *blackholeConn) Read(p []byte) (int, error) {
	c.stall()
	return 0, net.ErrClosed
}

func (c *blackholeConn) Write(p []byte) (int, error) {
	c.stall()
	return 0, net.ErrClosed
}

// slowConn delays the first write (the response head), then passes
// through.
type slowConn struct {
	net.Conn
	delay   time.Duration
	delayed bool
}

func (c *slowConn) Write(p []byte) (int, error) {
	if !c.delayed {
		c.delayed = true
		time.Sleep(c.delay)
	}
	return c.Conn.Write(p)
}
