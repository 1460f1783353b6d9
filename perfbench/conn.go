package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cocco/internal/search/dist"
)

// connStats accumulates traffic over every connection a countingListener
// accepted while on.
type connStats struct {
	on                    atomic.Bool // wrap the connections accepted next
	readBytes, writeBytes atomic.Int64
	readWait              atomic.Int64 // ns spent blocked in Read

	mu          sync.Mutex
	read, wrote []byte // captured streams, when capturing
	capture     bool
}

// reset zeroes the counters and captured streams.
func (s *connStats) reset() {
	s.readBytes.Store(0)
	s.writeBytes.Store(0)
	s.readWait.Store(0)
	s.mu.Lock()
	s.read, s.wrote = s.read[:0], s.wrote[:0]
	s.mu.Unlock()
}

// frames splits both captured streams into dist frames and returns their
// count and payloads. A trailing partial frame is ignored.
func (s *connStats) frames() (n int, payloads [][]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, stream := range [][]byte{s.read, s.wrote} {
		for len(stream) > 0 {
			_, payload, used, err := dist.DecodeFrame(stream)
			if err != nil {
				break
			}
			n++
			payloads = append(payloads, append([]byte(nil), payload...))
			stream = stream[used:]
		}
	}
	return n, payloads
}

// countingListener wraps every connection it accepts while its stats are on
// in a countingConn; the others are returned bare.
type countingListener struct {
	net.Listener
	stats *connStats
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	if !l.stats.on.Load() {
		return c, nil
	}
	return &countingConn{Conn: c, stats: l.stats}, nil
}

// countingConn counts bytes each way and the time Read blocks, and copies
// the traffic when its stats are capturing.
type countingConn struct {
	net.Conn
	stats *connStats
}

func (c *countingConn) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Read(p)
	c.stats.readWait.Add(int64(time.Since(start)))
	c.stats.readBytes.Add(int64(n))
	if n > 0 {
		c.stats.mu.Lock()
		if c.stats.capture {
			c.stats.read = append(c.stats.read, p[:n]...)
		}
		c.stats.mu.Unlock()
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.stats.writeBytes.Add(int64(n))
	if n > 0 {
		c.stats.mu.Lock()
		if c.stats.capture {
			c.stats.wrote = append(c.stats.wrote, p[:n]...)
		}
		c.stats.mu.Unlock()
	}
	return n, err
}
