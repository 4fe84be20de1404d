package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/netsql"
	"repro/internal/sqltypes"
)

// conn is the one difference between an in-process and a remote
// client.
type conn interface {
	exec(sql string) (rows []sqltypes.Row, affected int64, err error)
	close()
}

type localConn struct{ s *engine.Session }

func (c localConn) exec(sql string) ([]sqltypes.Row, int64, error) {
	res, err := c.s.Exec(sql)
	if err != nil {
		return nil, 0, err
	}
	return res.Rows, res.RowsAffected, nil
}
func (c localConn) close() { c.s.Close() }

type remoteConn struct{ c *netsql.Client }

func (c remoteConn) exec(sql string) ([]sqltypes.Row, int64, error) {
	resp, err := c.c.Exec(sql)
	if err != nil {
		return nil, 0, err
	}
	rows := make([]sqltypes.Row, len(resp.Rows))
	for i, r := range resp.Rows {
		rows[i] = r
	}
	return rows, resp.RowsAffected, nil
}
func (c remoteConn) close() { c.c.Close() }

type stmtKind uint8

const (
	kindPoint stmtKind = iota
	kindJoin
	kindUpdate
	kindInsert
	kindDelete
)

func (k stmtKind) isWrite() bool { return k >= kindUpdate }

type stmt struct {
	sql  string
	kind stmtKind
	key  int   // protein number
	id   int64 // annotation id for insert/delete
}

// Annotation ids the clients insert start here, far above anything the
// loader generates, and each client owns a disjoint range.
const (
	insertIDBase   = 10_000_000
	insertIDStride = 1_000_000
)

// mixedPass is the mixed stream's cycle of 30 statements: 60 % point
// selects, 20 % two-table joins, 20 % writes split evenly between
// update, insert and delete, evenly spaced. The order is the same for
// every seed and client (clients start at different offsets), so every
// block of whole passes carries exactly the same mix in the same order
// and the seed decides only which keys the statements touch.
var mixedPass = func() []stmtKind {
	p := make([]stmtKind, 30)
	writes := []stmtKind{kindUpdate, kindInsert, kindDelete}
	for i := range p {
		switch i % 5 {
		case 1:
			p[i] = kindJoin
		case 4:
			p[i] = writes[i/5%3]
		default:
			p[i] = kindPoint
		}
	}
	return p
}()

// generator is one client's statement stream: a pure function of
// (workload, seed, client), so the same seed replays the same traffic.
// A delete removes the oldest annotation this client inserted and
// still has, which keeps every delete a hit; until there is one (only
// during the warm block) an insert takes its place.
type generator struct {
	r      *rand.Rand
	z      *zipf
	mixed  bool
	pos    int // position in mixedPass
	nextID int64
	live   []stmt // own inserts not yet deleted, oldest first
}

func newGenerator(sp *spec, scale int, seed int64, client int) *generator {
	g := &generator{
		r:      rand.New(rand.NewSource(seed*1_000_003 + int64(client))),
		z:      newZipf(scale, 0.99, rand.New(rand.NewSource(seed))), // one key popularity order for all clients
		mixed:  sp.mixed,
		pos:    client * 7,
		nextID: insertIDBase + int64(client)*insertIDStride,
	}
	return g
}

func (g *generator) next() stmt {
	key := g.z.next(g.r)
	kind := kindPoint
	if g.mixed {
		kind = mixedPass[g.pos%len(mixedPass)]
		g.pos++
	}
	switch {
	case kind == kindPoint:
		return stmt{sql: pointSelectSQL(key), kind: kindPoint, key: key}
	case kind == kindJoin:
		return stmt{sql: simpleJoinSQL(key), kind: kindJoin, key: key}
	case kind == kindUpdate:
		return stmt{kind: kindUpdate, key: key,
			sql: "UPDATE protein SET length = length + 1 WHERE nref_id = '" + nrefID(key) + "'"}
	case kind == kindDelete && len(g.live) > 0:
		d := g.live[0]
		g.live = g.live[1:]
		return stmt{kind: kindDelete, key: d.key, id: d.id,
			sql: fmt.Sprintf("DELETE FROM annotation WHERE nref_id = '%s' AND annotation_id = %d", nrefID(d.key), d.id)}
	}
	st := stmt{kind: kindInsert, key: key, id: g.nextID,
		sql: fmt.Sprintf("INSERT INTO annotation VALUES (%d, '%s', 9, '%s', 'bench %d')",
			g.nextID, nrefID(key), features[g.r.Intn(len(features))], g.nextID)}
	g.nextID++
	g.live = append(g.live, st)
	return st
}

// client is one closed-loop caller: it sends its next statement only
// after the previous one returned.
type client struct {
	b     *bench
	idx   int
	conn  conn
	local *engine.Session // in-process twin of a remote client, for trace replay
	gen   *generator
	seq   int64

	blk, writeLat hist // this block's latencies; all writes' latencies
	conflicts     int64

	cal        calState
	busy, calD time.Duration // the last block's traffic time and calibration slice
	// The acked-write ledger: what the database must hold after close
	// and reopen.
	updates map[int]int64 // protein number -> acked increments
	live    map[int64]int // acked inserts not deleted since: annotation id -> protein number
}

const maxConflictRetries = 3

func (c *client) runBlock(n int) {
	b := c.b
	c.blk = hist{}
	for i := 0; i < n; i++ {
		st := c.gen.next()
		c.seq++
		traced := b.tr != nil && c.seq%int64(b.sp.traceEvery) == 0
		stmtID := c.seq*int64(len(b.clients)) + int64(c.idx)
		var stmtSpan, id int32
		if traced {
			stmtSpan = b.tr.begin("stmt", 0, stmtID)
			name := "engine.exec"
			if st.kind.isWrite() {
				name = "netsql.write"
			} else if b.sp.remote {
				name = "netsql.roundtrip"
			}
			id = b.tr.begin(name, stmtSpan, stmtID)
		}
		t0 := time.Now()
		rows, affected, err := c.conn.exec(st.sql)
		for try := 0; err != nil && st.kind.isWrite() && try < maxConflictRetries &&
			strings.Contains(err.Error(), "write conflict"); try++ {
			c.conflicts++
			rows, affected, err = c.conn.exec(st.sql)
		}
		d := time.Since(t0)
		b.tr.end(id)
		b.attempted.Add(1)
		c.blk.add(d)
		if st.kind.isWrite() {
			c.writeLat.add(d)
		}
		if err != nil {
			b.fail("%s: %v", st.sql, err)
		} else if why := c.check(st, rows, affected); why != "" {
			b.fail("%s: %s", st.sql, why)
		}
		if traced {
			if !st.kind.isWrite() {
				s := c.local
				if b.sp.remote {
					// The same statement in-process: the remote time
					// minus this one is what the network frontend costs.
					id = b.tr.begin("engine.exec", stmtSpan, stmtID)
					if _, err := s.Exec(st.sql); err != nil {
						b.fail("in-process replay of %s: %v", st.sql, err)
					}
					b.tr.end(id)
				}
				b.traceSelect(s, st.sql, stmtSpan, stmtID)
			}
			b.tr.end(stmtSpan)
		}
	}
}

// check verifies one result against what the driver knows and, for an
// acknowledged write, enters it in the ledger.
func (c *client) check(st stmt, rows []sqltypes.Row, affected int64) string {
	id := nrefID(st.key)
	switch st.kind {
	case kindPoint:
		if len(rows) != 1 || rows[0][0].S != id {
			return fmt.Sprintf("want the one row of %s, got %v", id, rows)
		}
		// Under mixed traffic length only ever grows; without writes
		// it is exactly what was loaded.
		if got, loaded := rows[0][1].I, c.b.data.lengths[st.key]; got < loaded || (!c.b.sp.mixed && got != loaded) {
			return fmt.Sprintf("length %d, loaded %d", got, loaded)
		}
	case kindJoin:
		if len(rows) < 1 || len(rows) > 2 {
			return fmt.Sprintf("want 1-2 organism rows, got %d", len(rows))
		}
		for _, r := range rows {
			if r[0].S != id {
				return fmt.Sprintf("row of %s in the join for %s", r[0].S, id)
			}
		}
	default:
		if affected != 1 {
			return fmt.Sprintf("rows affected %d, want 1", affected)
		}
		switch st.kind {
		case kindUpdate:
			c.updates[st.key]++
		case kindInsert:
			c.live[st.id] = st.key
		case kindDelete:
			delete(c.live, st.id)
		}
	}
	return ""
}

// warmClients opens the clients (and, for a remote workload, the
// server they talk to) and has each run one block.
func (b *bench) warmClients() error {
	var addr string
	if b.sp.remote {
		ctx, cancel := context.WithCancel(context.Background())
		b.server, b.stopSrv = netsql.NewServer(b.sys.DB), cancel
		a, err := b.server.Listen(ctx, "127.0.0.1:0")
		if err != nil {
			cancel()
			return fmt.Errorf("netsql listen: %w", err)
		}
		addr = a.String()
	}
	for i := 0; i < b.nClient; i++ {
		c := &client{b: b, idx: i, gen: newGenerator(b.sp, b.scale, b.cfg.seed, i),
			updates: map[int]int64{}, live: map[int64]int{}}
		c.local = b.sys.Session()
		c.conn = localConn{c.local}
		if b.sp.remote {
			rc, err := netsql.Dial(addr)
			if err != nil {
				return fmt.Errorf("netsql dial: %w", err)
			}
			c.conn = remoteConn{rc}
		}
		b.clients = append(b.clients, c)
	}
	b.streamBlock()
	for _, c := range b.clients {
		c.writeLat = hist{}
	}
	return nil
}

// verifyLedger checks, on the reopened database, that every
// acknowledged write is there and nothing else is: each protein's
// length is what was loaded plus its acked increments, and the
// client-inserted annotations are exactly the acked inserts without an
// acked delete.
func (b *bench) verifyLedger(s *engine.Session) {
	updates := map[int]int64{}
	live := map[int64]int{}
	for _, c := range b.clients {
		for k, n := range c.updates {
			updates[k] += n
		}
		for id, k := range c.live {
			live[id] = k
		}
	}

	b.attempted.Add(1)
	res, err := s.Exec("SELECT p.nref_id, p.length FROM protein p")
	if err != nil || len(res.Rows) != b.scale {
		b.fail("ledger: protein scan: %d rows, err %v", len(res.Rows), err)
		return
	}
	for _, r := range res.Rows {
		var k int
		fmt.Sscanf(r[0].S, "NF%d", &k)
		if want := b.data.lengths[k] + updates[k]; r[1].I != want {
			b.fail("ledger: %s length %d, want %d loaded + %d acked updates", r[0].S, r[1].I, b.data.lengths[k], updates[k])
			return
		}
	}

	b.attempted.Add(1)
	res, err = s.Exec(fmt.Sprintf("SELECT a.annotation_id, a.nref_id FROM annotation a WHERE a.annotation_id >= %d", insertIDBase))
	if err != nil || len(res.Rows) != len(live) {
		b.fail("ledger: %d client-inserted annotations after reopen, want %d (err %v)", len(res.Rows), len(live), err)
		return
	}
	for _, r := range res.Rows {
		if k, ok := live[r[0].I]; !ok || nrefID(k) != r[1].S {
			b.fail("ledger: annotation %d of %s was never acked or was deleted", r[0].I, r[1].S)
			return
		}
	}
}
