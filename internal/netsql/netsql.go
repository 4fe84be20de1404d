// Package netsql provides a minimal remote SQL interface over TCP —
// newline-delimited JSON requests and responses. It exists for the
// paper's remote-monitoring story: because the monitor's data is
// exposed through IMA virtual tables, "it is possible to easily access
// in-memory structures within the DBMS over standard SQL which allows
// remote monitoring of the DBMS without having to implement a new
// interface or communications protocol" — any SQL channel suffices,
// and this package is the engine's network channel.
//
// Protocol: the client sends one JSON object per line
// {"sql": "SELECT ..."} and receives one JSON object per line
// {"columns": [...], "rows": [[...]], "rows_affected": n} or
// {"error": "..."}. One engine session lives per connection, so
// Begin/Commit work across requests.
package netsql

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/sqltypes"
)

// Request is one client command.
type Request struct {
	SQL string `json:"sql"`
}

// Response is the server's reply.
type Response struct {
	Columns      []string           `json:"columns,omitempty"`
	Rows         [][]sqltypes.Value `json:"rows,omitempty"`
	RowsAffected int64              `json:"rows_affected,omitempty"`
	Error        string             `json:"error,omitempty"`
}

// maxLine bounds request/response line sizes.
const maxLine = 4 << 20

// Server serves engine sessions over TCP.
type Server struct {
	db *engine.DB

	// Logf, when set before Listen, receives protocol-level errors
	// (oversized or unreadable request lines). Nil discards them.
	Logf func(format string, args ...any)

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool

	lineErrors atomic.Int64
}

// NewServer wraps a database.
func NewServer(db *engine.DB) *Server {
	return &Server{db: db, conns: map[net.Conn]struct{}{}}
}

// LineErrors returns the number of request lines the server could not
// read (scanner errors, e.g. a line exceeding the protocol limit).
func (s *Server) LineErrors() int64 { return s.lineErrors.Load() }

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// Listen starts accepting on addr (e.g. "127.0.0.1:0") and returns the
// bound address. Serving continues until ctx is cancelled or Close is
// called.
func (s *Server) Listen(ctx context.Context, addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.listener = ln
	s.closed = false
	s.mu.Unlock()
	go func() {
		<-ctx.Done()
		s.Close()
	}()
	go s.acceptLoop(ln)
	return ln.Addr(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		if !s.track(conn) {
			// Lost the race with Close: a connection accepted during
			// shutdown must not be registered after Close cleared the
			// map (it would never be closed again — a leak). Drop it.
			conn.Close()
			return
		}
		go s.serveConn(conn)
	}
}

// track registers a live connection, refusing once Close has run.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

// Close stops the listener and disconnects every client. Connections
// still in flight inside the accept loop are refused by track.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	if s.listener != nil {
		s.listener.Close()
		s.listener = nil
	}
	for c := range s.conns {
		c.Close()
	}
	s.conns = map[net.Conn]struct{}{}
}

func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	sess := s.db.NewSession()
	defer sess.Close()

	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64<<10), maxLine)
	enc := json.NewEncoder(conn)
	for sc.Scan() {
		var req Request
		if err := json.Unmarshal(sc.Bytes(), &req); err != nil {
			enc.Encode(Response{Error: "bad request: " + err.Error()})
			continue
		}
		resp := s.execute(sess, req.SQL)
		if err := enc.Encode(resp); err != nil {
			return
		}
	}
	// A scanner error (most likely a request line over the protocol
	// limit) used to end the connection silently; tell the client why,
	// log it and count it. The connection still closes — the stream is
	// desynchronized past a bad line.
	if err := sc.Err(); err != nil {
		s.lineErrors.Add(1)
		s.logf("netsql: %s: request read error: %v", conn.RemoteAddr(), err)
		enc.Encode(Response{Error: fmt.Sprintf(
			"request read error (lines are limited to %d bytes): %v", maxLine, err)})
	}
}

func (s *Server) execute(sess *engine.Session, sql string) Response {
	var (
		res *engine.Result
		err error
	)
	switch sql {
	case "BEGIN", "begin":
		err = sess.Begin()
	case "COMMIT", "commit":
		// A failed durability wait aborts the transaction: the client
		// must hear that its commit did not happen.
		err = sess.Commit()
	case "ROLLBACK", "rollback":
		sess.Rollback()
	default:
		res, err = sess.Exec(sql)
	}
	if err != nil {
		return Response{Error: err.Error()}
	}
	if res == nil {
		return Response{}
	}
	out := Response{Columns: res.Columns, RowsAffected: res.RowsAffected}
	out.Rows = make([][]sqltypes.Value, len(res.Rows))
	for i, r := range res.Rows {
		out.Rows[i] = r
	}
	return out
}

// Client is a remote session.
type Client struct {
	conn net.Conn
	sc   *bufio.Scanner
	enc  *json.Encoder
	mu   sync.Mutex
}

// Dial connects to a netsql server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64<<10), maxLine)
	return &Client{conn: conn, sc: sc, enc: json.NewEncoder(conn)}, nil
}

// Exec runs one statement on the remote session.
func (c *Client) Exec(sql string) (*Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.enc.Encode(Request{SQL: sql}); err != nil {
		return nil, err
	}
	if !c.sc.Scan() {
		if err := c.sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("netsql: server closed the connection")
	}
	var resp Response
	if err := json.Unmarshal(c.sc.Bytes(), &resp); err != nil {
		return nil, err
	}
	if resp.Error != "" {
		return &resp, fmt.Errorf("netsql: %s", resp.Error)
	}
	return &resp, nil
}

// Close disconnects, ending the remote session.
func (c *Client) Close() error { return c.conn.Close() }
