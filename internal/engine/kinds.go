package engine

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/monitor"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
	"repro/internal/stage"
)

// The statement-kind table: one row per statement type says what a
// statement is to the statement path — the monitor's kind, how Exec
// admits it, when its entry is cached, the tables it holds and the
// function that runs it. newPrepared finds the row and the entry keeps
// it, so Exec, parse and the finish step read the row, and a cache hit
// looks nothing up.

// stmtClass is how Exec treats a statement around its run.
type stmtClass uint8

const (
	classRead  stmtClass = iota // admitted to its tables, run under a snapshot
	classWrite                  // a read whose failure aborts the open transaction
	// classDDL commits the open transaction first and takes no slot: its
	// run keeps statements off its tables (drainFirst, or the index
	// build, which enters the DDL word itself).
	classDDL
)

// cacheRule is when a statement's entry is published to the statement
// cache; a write's only with at most maxCachedDMLLiterals literals.
type cacheRule uint8

const (
	cacheNever   cacheRule = iota
	cachePlanned           // once planned (execSelect, dmlPlanOf)
	cacheParsed            // once parsed: there is nothing more to derive
)

// maxCachedDMLLiterals keeps multi-row INSERTs out of the cache: their
// shape varies with the row count and their AST is as large as the
// statement, so an entry would cost more than the parse it saves.
const maxCachedDMLLiterals = 64

// call is one execution of a prepared statement; h is &Session.h.
type call struct {
	p      *prepared
	params []sqltypes.Value
	h      *monitor.Handle
	tick   int64
}

type stmtKind struct {
	name  string // the monitor's kind
	class stmtClass
	cache cacheRule
	scope func(db *DB, p *prepared) []string // what its slot or DDL word names, lower-cased and sorted
	run   func(s *Session, c call) (*Result, execCost, error)
	is    func(st sqlparser.Statement) bool
	nilOf sqlparser.Statement // a nil of the row's statement type
}

// kind makes the row of statement type T.
func kind[T sqlparser.Statement](name string, class stmtClass, cache cacheRule, run func(*Session, T, call) (*Result, execCost, error)) *stmtKind {
	var nilOf T
	return &stmtKind{name: name, class: class, cache: cache, scope: namedTables, nilOf: nilOf,
		run: func(s *Session, c call) (*Result, execCost, error) { return run(s, c.p.stmt.(T), c) },
		is:  func(st sqlparser.Statement) bool { _, ok := st.(T); return ok },
	}
}

var stmtKinds = []*stmtKind{
	kind("SELECT", classRead, cachePlanned, (*Session).execSelect),
	kind("INSERT", classWrite, cacheParsed, (*Session).execInsert),
	kind("UPDATE", classWrite, cachePlanned, func(s *Session, st *sqlparser.UpdateStmt, c call) (*Result, execCost, error) {
		return s.execWrite(st.Table, st.Where, st.Set, c)
	}),
	kind("DELETE", classWrite, cachePlanned, func(s *Session, st *sqlparser.DeleteStmt, c call) (*Result, execCost, error) {
		return s.execWrite(st.Table, st.Where, nil, c)
	}),
	kind("EXPLAIN", classRead, cacheNever, (*Session).execExplain),
	kind("SET", classRead, cacheNever, (*Session).execSet),
	kind("CREATE STATISTICS", classRead, cacheNever, onDB((*DB).execCreateStatistics)),
	kind("CREATE TABLE", classDDL, cacheNever, drainFirst((*DB).execCreateTable)),
	kind("DROP TABLE", classDDL, cacheNever, drainFirst((*DB).execDropTable)),
	kind("MODIFY", classDDL, cacheNever, drainFirst((*DB).execModify)),
	// A build must not drain its table upfront — writers proceed during
	// it; it enters the DDL word itself and drains only for the final
	// catch-up. A virtual index only touches the catalog.
	kind("CREATE INDEX", classDDL, cacheNever, func(s *Session, st *sqlparser.CreateIndexStmt, c call) (*Result, execCost, error) {
		if st.Virtual {
			return drainFirst((*DB).execCreateVirtualIndex)(s, st, c)
		}
		return onDB((*DB).execCreateIndex)(s, st, c)
	}),
	// The statement names only the index; the table it drains is the
	// index's.
	kind("DROP INDEX", classDDL, cacheNever, drainFirst((*DB).execDropIndex)).scoped(func(db *DB, p *prepared) []string {
		if ix := db.cat.Index(p.stmt.(*sqlparser.DropIndexStmt).Name); ix != nil {
			return []string{strings.ToLower(ix.Table)}
		}
		return nil
	}),
}

func (k *stmtKind) scoped(scope func(db *DB, p *prepared) []string) *stmtKind {
	k.scope = scope
	return k
}

// namedTables is the usual scope: the tables the statement names, less
// virtual tables, which are snapshots no DDL changes.
func namedTables(db *DB, p *prepared) []string {
	var scope []string
	for _, t := range p.tables {
		if t = strings.ToLower(t); db.virtualTable(t) == nil {
			scope = append(scope, t)
		}
	}
	slices.Sort(scope)
	return scope
}

// kindOf returns the row of a statement's type.
func kindOf(st sqlparser.Statement) *stmtKind {
	for _, k := range stmtKinds {
		if k.is(st) {
			return k
		}
	}
	panic(fmt.Sprintf("engine: no statement kind for %T", st))
}

// onDB runs a statement that needs only the database. Its execution
// sensor reports the rows it affected as cost and the rows it returned.
func onDB[T sqlparser.Statement](f func(*DB, T) (*Result, error)) func(*Session, T, call) (*Result, execCost, error) {
	return func(s *Session, st T, _ call) (*Result, execCost, error) {
		res, err := f(s.db, st)
		if err != nil {
			return nil, execCost{}, err
		}
		return res, execCost{cpu: res.RowsAffected, rows: int64(len(res.Rows))}, nil
	}
}

// drainFirst runs DDL alone on its tables: once no slot names them, and
// behind the WAL's exclusive gate, taken only then, so no logged
// statement spans a file rebuild and recovery can never replay a stale
// pre-rebuild image onto the new file. DDL bypasses the log (its file
// rebuilds are made durable wholesale): it checkpoints under the gate so
// the new files and catalog hit disk and the redo scan start moves past
// every pre-DDL record.
func drainFirst[T sqlparser.Statement](f func(*DB, T) (*Result, error)) func(*Session, T, call) (*Result, execCost, error) {
	run := onDB(f)
	return func(s *Session, st T, c call) (*Result, execCost, error) {
		db := s.db
		from := s.clk.Switch(stage.Admit)
		e := db.runDDL(db.beginDDL(c.p.scope, ddlPending))
		walRelease := db.wal.BeginExclusive()
		s.clk.Switch(from)
		res, cost, err := run(s, st, c)
		s.clk.Switch(stage.Durable)
		if err == nil {
			err = db.Checkpoint()
		}
		walRelease()
		db.setDDL(e, ddlDone)
		return res, cost, err
	}
}
