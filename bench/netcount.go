package main

import (
	"net"
	"sync/atomic"
)

// netCounts counts the socket calls and bytes of every connection a
// listener accepts: the server's (or the replication source's) side of
// the wire, seen from outside the program.
type netCounts struct {
	reads, writes     atomic.Int64
	bytesIn, bytesOut atomic.Int64
}

type countListener struct {
	net.Listener
	c *netCounts
}

func (l countListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countConn{Conn: nc, c: l.c}, nil
}

type countConn struct {
	net.Conn
	c *netCounts
}

func (c countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.reads.Add(1)
	c.c.bytesIn.Add(int64(n))
	return n, err
}

func (c countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.writes.Add(1)
	c.c.bytesOut.Add(int64(n))
	return n, err
}

// netReading is the value of a netCounts at one moment.
type netReading struct{ reads, writes, bytesIn, bytesOut int64 }

func (c *netCounts) read() netReading {
	return netReading{c.reads.Load(), c.writes.Load(), c.bytesIn.Load(), c.bytesOut.Load()}
}

func (a netReading) since(b netReading) netReading {
	return netReading{a.reads - b.reads, a.writes - b.writes, a.bytesIn - b.bytesIn, a.bytesOut - b.bytesOut}
}
