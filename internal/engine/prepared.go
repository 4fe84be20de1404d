package engine

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/executor"
	"repro/internal/monitor"
	"repro/internal/optimizer"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
	"repro/internal/stage"
)

// The statement fast path. A statement's shape — its token stream with
// every literal masked, which the scanner produces in the one lex pass
// a statement ever gets — keys a bounded cache of prepared statements.
// An entry holds everything the parser, the catalog lookups before
// execution and the optimizer derived from the first statement of the
// shape; a later one binds its literals into the parameter vector and
// goes straight to admission and the executor. A miss runs the
// parser over the same tokens, so the parser stays the only definition
// of the language and of which literals are parameters.

// prepared is one statement made ready to execute. Cached entries are
// immutable once published and shared by every session.
type prepared struct {
	stmt   sqlparser.Statement
	kind   *stmtKind
	tables []string // as written, in first-appearance order (the parser sensor's view)
	scope  []string // the kind's scope of the statement

	// Filled in once the statement is planned: a SELECT's plan, its
	// compiled pipeline and result columns, an UPDATE's or DELETE's
	// access path.
	plan    *optimizer.Plan
	prep    *executor.Prepared
	columns []string
	dml     *dmlPlan

	// digest identifies the statement to the monitor and everything
	// downstream of it: sqlparser.Digest of the shape key and fixed, or
	// of the text when the statement is too long to have a key. text is
	// the statement the entry was built from, the monitor's sample.
	digest uint64
	text   string

	// Cached entries only. key is the shape key; bindings say which
	// literal of a statement of this shape feeds which parameter, and
	// fixed holds the text of the literals the parser left in the
	// statement (LIMIT 5 is another statement than LIMIT 6): an entry
	// serves exactly the statements whose unbound literals equal these —
	// the statements sharing its digest. shape is the monitor's counter
	// block for them, set when the entry is published.
	key      string
	bindings []sqlparser.Binding
	fixed    []string
	shape    atomic.Pointer[monitor.Shape]

	lastUsed atomic.Int64 // coarse statement clock of the last hit
}

// serves reports whether the entry's unbound literals equal those of a
// statement of its shape.
func (p *prepared) serves(lits []sqlparser.Lit) bool {
	if len(p.fixed) == 0 {
		return true
	}
	j := 0
	for i, b := range p.bindings {
		if b.Param < 0 {
			if lits[i].Text != p.fixed[j] {
				return false
			}
			j++
		}
	}
	return true
}

// observe tells the monitor handle what is executing: the published
// Shape of a cached entry — lane is the session's stripe in it — else
// the statement's digest and the table list the parser found.
func (p *prepared) observe(h *monitor.Handle, lane int64) {
	if p.shape.Load() != nil {
		h.Cached(p.kind.name, &p.shape, lane)
	} else {
		h.Parsed(p.kind.name, p.tables)
		h.Keyed(p.digest)
	}
}

// newPrepared builds the entry of the statement the session's scanner
// holds, freshly parsed. A cacheable statement's entry carries the shape
// key (when the statement has one) together with the parser's bindings.
func (db *DB) newPrepared(sc *sqlparser.Scanner, parsed *sqlparser.ParseResult) *prepared {
	stmt, key, lits := parsed.Stmt, sc.Key(), sc.Literals()
	k := kindOf(stmt)
	p := &prepared{stmt: stmt, kind: k, tables: sqlparser.ReferencedTables(stmt), text: sc.Text()}
	p.scope = k.scope(db, p)
	if key == nil {
		p.digest = sqlparser.Digest(p.text, nil)
		return p
	}
	p.fixed = sc.Fixed(parsed.Bindings)
	p.digest = sqlparser.Digest(key, p.fixed)
	if k.cache != cacheNever && (k.class != classWrite || len(lits) <= maxCachedDMLLiterals) {
		p.key = string(key)
		p.bindings = parsed.Bindings
	}
	return p
}

// publish puts a completed entry into the cache, publishing its shape —
// with the objects and estimates of its plan, when it has one — to the
// monitor first; an entry without a shape key stays the executing
// session's own.
func (db *DB) publish(p *prepared, plan *optimizer.Plan, tick int64) {
	if p.key == "" {
		return
	}
	var attrs, indexes []string
	var est monitor.Estimates
	if plan != nil {
		attrs, indexes = plan.Attributes, plan.UsedIndexes
		est = monitor.Estimates{CPU: plan.Est.CPU, IO: plan.Est.IO, Rows: plan.Est.Rows}
	}
	p.shape.Store(db.mon.Publish(p.digest, p.text, p.kind.name, p.tables, attrs, indexes, est))
	db.plans.put(p, tick)
}

// stmtCache is the bounded cache of prepared statements, keyed by shape
// with one entry per distinct set of unbound literals. Hits
// take the read side of the lock and stamp the entry with a coarse
// statement clock; a put over capacity evicts the entry with the oldest
// stamp. DDL and statistics changes drop everything. The warm cache is
// what collapses per-statement cost for repeated statement shapes — the
// effect behind the paper's Figure 5.
type stmtCache struct {
	mu  sync.RWMutex
	cap int
	n   int // entries, over all shapes
	m   map[string][]*prepared
	// gen counts invalidations. A session looks its statement up before
	// it is admitted to the statement's tables, so DDL on those tables may
	// drop the cache in between; it notes gen at the lookup and checks it
	// again once admitted (Session.Exec).
	gen atomic.Uint64

	// Cold-path counters behind the stmt_cache_* statistics columns.
	// Hits are not counted: they are the statements minus the misses.
	misses        atomic.Int64 // statements that took the parser's road
	evictions     atomic.Int64 // entries dropped for capacity
	staleReparses atomic.Int64 // hits DDL overtook on the way to admission
}

// stmtCacheSize bounds the number of cached prepared statements.
const stmtCacheSize = 512

func newStmtCache(capacity int) *stmtCache {
	return &stmtCache{cap: capacity, m: map[string][]*prepared{}}
}

// clockShift coarsens the LRU clock: a hot entry, hit by every session,
// is written once per 2^clockShift statements instead of on every hit.
const clockShift = 6

// get returns the entry serving a statement with this shape key and
// literal vector, or nil.
func (c *stmtCache) get(key []byte, lits []sqlparser.Lit, tick int64) *prepared {
	var p *prepared
	c.mu.RLock()
	for _, e := range c.m[string(key)] {
		if e.serves(lits) {
			p = e
			break
		}
	}
	c.mu.RUnlock()
	if p != nil {
		if now := tick >> clockShift; p.lastUsed.Load() != now {
			p.lastUsed.Store(now)
		}
	}
	return p
}

// put publishes an entry, replacing one that serves the same statements
// and evicting the least recently used one when the cache is full.
func (c *stmtCache) put(p *prepared, tick int64) {
	p.lastUsed.Store(tick >> clockShift)
	c.mu.Lock()
	defer c.mu.Unlock()
	es := c.m[p.key]
	if i := slices.IndexFunc(es, func(e *prepared) bool { return slices.Equal(e.fixed, p.fixed) }); i >= 0 {
		es[i] = p
		return
	}
	if c.n >= c.cap {
		c.evictOldestLocked()
	}
	c.m[p.key] = append(c.m[p.key], p)
	c.n++
}

// evictOldestLocked removes the entry with the oldest stamp.
func (c *stmtCache) evictOldestLocked() {
	var victim *prepared
	for _, es := range c.m {
		for _, e := range es {
			if victim == nil || e.lastUsed.Load() < victim.lastUsed.Load() {
				victim = e
			}
		}
	}
	if victim == nil {
		return
	}
	es := c.m[victim.key]
	i := slices.Index(es, victim)
	if es = slices.Delete(es, i, i+1); len(es) == 0 {
		delete(c.m, victim.key)
	} else {
		c.m[victim.key] = es
	}
	c.n--
	c.evictions.Add(1)
}

// invalidate drops every entry; DDL and statistics changes call it so
// new plans see the new physical design. The monitor is not told: a
// shape published again finds its statement entry where it left it.
func (c *stmtCache) invalidate() {
	c.mu.Lock()
	c.m = map[string][]*prepared{}
	c.n = 0
	c.gen.Add(1)
	c.mu.Unlock()
}

// len returns the number of cached entries.
func (c *stmtCache) len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.n
}

// InvalidatePlans clears the statement cache (exported for the
// analyzer, which changes the physical design out-of-band).
func (db *DB) InvalidatePlans() { db.plans.invalidate() }

// prepare turns statement text into a prepared statement and its
// parameter vector: one lex pass, then either a cache hit — the
// literals are bound into the session's parameter buffer, which the
// next statement reuses — or the parser. The monitor handle learns what
// the statement is either way (observe), and under which digest to count
// a statement that fails here.
func (s *Session) prepare(sql string, tick int64, h *monitor.Handle) (*prepared, []sqltypes.Value, error) {
	sc := &s.scan
	if err := sc.Scan(sql); err != nil {
		// No shape to count under: all texts the lexer rejects for one
		// reason are one statement, so garbage cannot churn the table.
		h.Keyed(err.(*sqlparser.LexError).Digest())
		s.db.plans.misses.Add(1)
		return nil, nil, err
	}
	key := sc.Key()
	if key != nil {
		s.cacheGen = s.db.plans.gen.Load()
		if p := s.db.plans.get(key, sc.Literals(), tick); p != nil {
			// A literal without a value (an integer out of range) falls
			// through to the parser, which words the error.
			s.clk.Switch(stage.Bind)
			if params, ok := sqlparser.Bind(s.params[:0], sc.Literals(), p.bindings); ok {
				s.params = params
				p.observe(h, s.id)
				return p, params, nil
			}
			s.clk.Switch(stage.Parse)
		}
	}
	s.db.plans.misses.Add(1)
	return s.parse(tick, h)
}

// parse is the miss road of prepare: the parser over the tokens of the
// session's last scan. Exec also takes it for a cache hit that DDL
// overtook on the way to admission.
func (s *Session) parse(tick int64, h *monitor.Handle) (*prepared, []sqltypes.Value, error) {
	sc := &s.scan
	parsed, err := sc.Parse()
	if err != nil {
		if key := sc.Key(); key != nil {
			h.Keyed(sqlparser.Digest(key, nil))
		}
		return nil, nil, err
	}
	p := s.db.newPrepared(sc, parsed)
	if p.kind.cache == cacheParsed {
		s.db.publish(p, nil, tick)
	}
	p.observe(h, s.id)
	return p, parsed.Params, nil
}
