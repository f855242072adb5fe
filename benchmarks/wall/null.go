package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
)

// The null server is the reference every Bullet slice is paired with: the
// same request and reply payload sizes over loopback TCP with no file
// server behind them. It deliberately shares no code with internal/rpc —
// a change to the code under test must not move the reference.
//
// Request frame: uint32 reqLen, uint32 repLen, reqLen payload bytes.
// Reply frame:   uint32 repLen, repLen bytes of a static buffer.

// nullMaxPayload bounds either direction of a null frame; the largest
// Bullet payload any workload moves is 1 MiB.
const nullMaxPayload = 8 << 20

var nullStatic = make([]byte, nullMaxPayload)

// writeFrame sends a frame's header and payload in one vectored write.
func writeFrame(conn net.Conn, hdr, payload []byte) error {
	bufs := net.Buffers{hdr}
	if len(payload) > 0 {
		bufs = append(bufs, payload)
	}
	_, err := bufs.WriteTo(conn)
	return err
}

// serveNull answers null frames on conn until the peer closes it.
func serveNull(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 64<<10)
	var hdr [8]byte
	var rep [4]byte
	var req []byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		reqLen := binary.BigEndian.Uint32(hdr[0:4])
		repLen := binary.BigEndian.Uint32(hdr[4:8])
		if reqLen > nullMaxPayload || repLen > nullMaxPayload {
			return
		}
		req = sized(req, int(reqLen))
		if _, err := io.ReadFull(br, req); err != nil {
			return
		}
		binary.BigEndian.PutUint32(rep[:], repLen)
		if err := writeFrame(conn, rep[:], nullStatic[:repLen]); err != nil {
			return
		}
	}
}

// runNullServer is `wall -null-server`: it prints its address, serves one
// goroutine per connection, and exits when its standard input closes (so
// it cannot outlive the harness that started it).
func runNullServer() error {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	fmt.Printf("null server listening on %s\n", lis.Addr())
	//lint:ignore goroutinestop ends when the listener closes below, just before the process exits
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			//lint:ignore goroutinestop ends when the peer closes the connection; process exit reaps the rest
			go serveNull(conn)
		}
	}()
	_, _ = io.Copy(io.Discard, os.Stdin)
	return lis.Close()
}

// nullConn is the client side of one null connection. The mutex mirrors
// tcpConn.mu in internal/rpc: workers that share one client.Client share
// one nullConn the same way.
type nullConn struct {
	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader
	body []byte
}

func dialNull(addr string) (*nullConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial null server: %w", err)
	}
	return newNullConn(conn), nil
}

func newNullConn(conn net.Conn) *nullConn {
	return &nullConn{conn: conn, br: bufio.NewReaderSize(conn, 64<<10)}
}

// roundTrip sends req and checks that exactly repLen reply bytes return.
func (c *nullConn) roundTrip(req []byte, repLen int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(req)))
	binary.BigEndian.PutUint32(hdr[4:8], uint32(repLen))
	if err := writeFrame(c.conn, hdr[:], req); err != nil {
		return fmt.Errorf("null send: %w", err)
	}
	if _, err := io.ReadFull(c.br, hdr[:4]); err != nil {
		return fmt.Errorf("null receive: %w", err)
	}
	if got := int(binary.BigEndian.Uint32(hdr[:4])); got != repLen {
		return fmt.Errorf("null reply announces %d bytes, want %d", got, repLen)
	}
	c.body = sized(c.body, repLen)
	if _, err := io.ReadFull(c.br, c.body); err != nil {
		return fmt.Errorf("null reply body: %w", err)
	}
	return nil
}

func (c *nullConn) close() { c.conn.Close() }
