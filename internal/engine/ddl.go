package engine

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

func (db *DB) execCreateTable(st *sqlparser.CreateTableStmt) (*Result, error) {
	if db.cat.Table(st.Name) != nil || db.virtualTable(st.Name) != nil {
		if st.IfNotExists {
			return &Result{}, nil
		}
		return nil, fmt.Errorf("engine: table %s already exists", st.Name)
	}
	if len(st.Columns) == 0 {
		return nil, fmt.Errorf("engine: table %s has no columns", st.Name)
	}
	var cols []sqltypes.Column
	var pk []string
	seen := map[string]bool{}
	for _, c := range st.Columns {
		key := strings.ToLower(c.Name)
		if seen[key] {
			return nil, fmt.Errorf("engine: duplicate column %s", c.Name)
		}
		seen[key] = true
		cols = append(cols, sqltypes.Column{Name: c.Name, Type: c.Type})
		if c.PrimaryKey {
			pk = append(pk, c.Name)
		}
	}
	if len(st.PrimaryKey) > 0 {
		if len(pk) > 0 {
			return nil, fmt.Errorf("engine: duplicate PRIMARY KEY specification")
		}
		pk = st.PrimaryKey
	}
	schema := sqltypes.NewSchema(cols...)
	for _, c := range pk {
		if schema.ColIndex(c) < 0 {
			return nil, fmt.Errorf("engine: primary key column %q not in table", c)
		}
	}
	meta := &catalog.Table{
		Name:       st.Name,
		Schema:     schema,
		Structure:  catalog.Heap, // Ingres default
		PrimaryKey: pk,
		MainPages:  1,
	}
	if err := db.cat.AddTable(meta); err != nil {
		return nil, err
	}
	if err := db.openTable(meta); err != nil {
		return nil, err
	}
	// A primary key is enforced through an automatically created
	// unique index (the storage structure stays HEAP until MODIFY, as
	// in Ingres).
	if len(pk) > 0 {
		_, err := db.execCreateIndex(&sqlparser.CreateIndexStmt{
			Name:    "pk_" + strings.ToLower(st.Name),
			Table:   st.Name,
			Columns: pk,
			Unique:  true,
		})
		if err != nil {
			return nil, err
		}
	}
	db.plans.invalidate()
	return &Result{}, nil
}

func (db *DB) execDropTable(st *sqlparser.DropTableStmt) (*Result, error) {
	h := db.handle(st.Name)
	if h == nil {
		if st.IfExists {
			return &Result{}, nil
		}
		return nil, fmt.Errorf("engine: table %s does not exist", st.Name)
	}
	// Catalog first: once the entry is gone (and saved), a crash at any
	// later point leaves at worst orphan files, which the open-time
	// sweep removes — never a catalog pointing at missing files.
	if err := db.cat.DropTable(st.Name); err != nil {
		return nil, err
	}
	db.mu.Lock()
	delete(db.tables, strings.ToLower(st.Name))
	db.mu.Unlock()
	db.plans.invalidate()
	var errs []error
	if err := h.heap.File().Remove(); err != nil {
		errs = append(errs, err)
	}
	if h.primary != nil {
		if err := h.primary.File().Remove(); err != nil {
			errs = append(errs, err)
		}
	}
	for _, bt := range h.indexes {
		if err := bt.File().Remove(); err != nil {
			errs = append(errs, err)
		}
	}
	return &Result{}, errors.Join(errs...)
}

func (db *DB) execCreateIndex(st *sqlparser.CreateIndexStmt) (*Result, error) {
	h := db.handle(st.Table)
	if h == nil {
		return nil, fmt.Errorf("engine: unknown table %q", st.Table)
	}
	ix := &catalog.Index{
		Name:    st.Name,
		Table:   st.Table,
		Columns: st.Columns,
		Unique:  st.Unique,
		Virtual: st.Virtual,
	}
	if err := db.cat.AddIndex(ix); err != nil {
		return nil, err
	}
	if st.Virtual {
		// Virtual indexes live only in the catalog: zero build cost,
		// zero storage — the optimizer may cost them in what-if mode.
		db.plans.invalidate()
		return &Result{}, nil
	}
	bt, err := db.buildIndexStorage(h, st.Name, st.Columns, st.Unique)
	if err != nil {
		// Unified rollback: no failure may leak the on-disk file or the
		// catalog entry (historically every build-loop error except the
		// duplicate-key path did both). buildIndexStorage removed the
		// file; drop the entry and flush plans that might have seen it.
		if derr := db.cat.DropIndex(st.Name); derr != nil {
			err = errors.Join(err, derr)
		}
		db.plans.invalidate()
		return nil, err
	}
	db.mu.Lock()
	h.indexes[strings.ToLower(st.Name)] = bt
	db.mu.Unlock()
	db.plans.invalidate()
	return &Result{}, nil
}

// buildIndexStorage creates the index file and backfills it with a
// blocking scan of the base table (the caller runs alone on the drained
// table, via the DDL path). On any error the file — and every pool frame
// backing it — is removed before returning, so the caller only has the
// catalog entry left to roll back.
func (db *DB) buildIndexStorage(h *tableHandle, name string, cols []string, unique bool) (_ *storage.BTree, err error) {
	xf, err := db.newFile(db.indexPath(name))
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			if rerr := xf.Remove(); rerr != nil {
				err = errors.Join(err, rerr)
			}
		}
	}()
	bt, err := storage.CreateBTree(xf)
	if err != nil {
		return nil, err
	}
	// Every heap version gets an entry — scans filter by visibility and
	// vacuum removes entries with the versions, exactly as on the DML
	// path. Uniqueness is verified afterwards over live versions only.
	err = h.heap.Scan(func(tid storage.TID, rec []byte) (bool, error) {
		if len(rec) < storage.VersionHeaderSize {
			return false, fmt.Errorf("engine: unversioned record %v in %s", tid, h.meta.Name)
		}
		row, err := sqltypes.DecodeRow(storage.VersionPayload(rec), nil)
		if err != nil {
			return false, err
		}
		key, err := keyFor(h.meta.Schema, row, cols)
		if err != nil {
			return false, err
		}
		return true, bt.Put(tidSuffix(key, tid), tidBytes(tid))
	})
	if err != nil {
		return nil, err
	}
	if unique {
		if err := db.verifyUniqueLive(h, bt, name); err != nil {
			return nil, err
		}
	}
	return bt, nil
}

func (db *DB) execDropIndex(st *sqlparser.DropIndexStmt) (*Result, error) {
	ix := db.cat.Index(st.Name)
	if ix == nil {
		if st.IfExists {
			return &Result{}, nil
		}
		return nil, fmt.Errorf("engine: index %s does not exist", st.Name)
	}
	// The catalog forgets the index before its file goes, as DROP TABLE
	// does: a crash in between leaves an orphan file, which Open sweeps,
	// never a catalog entry whose file recovery would have to rebuild
	// from the page images left in the log.
	if err := db.cat.DropIndex(st.Name); err != nil {
		return nil, err
	}
	db.plans.invalidate()
	if !ix.Virtual {
		h := db.handle(ix.Table)
		if h != nil {
			if bt := h.indexes[strings.ToLower(st.Name)]; bt != nil {
				db.mu.Lock()
				delete(h.indexes, strings.ToLower(st.Name))
				db.mu.Unlock()
				if err := bt.File().Remove(); err != nil {
					return nil, err
				}
			}
		}
	}
	return &Result{}, nil
}

func (db *DB) execModify(st *sqlparser.ModifyStmt) (*Result, error) {
	h := db.handle(st.Table)
	if h == nil {
		return nil, fmt.Errorf("engine: unknown table %q", st.Table)
	}
	switch st.Structure {
	case "BTREE":
		keyCols := st.KeyCols
		if len(keyCols) == 0 {
			keyCols = h.meta.PrimaryKey
		}
		if err := db.rebuildTable(h, catalog.BTree, keyCols); err != nil {
			return nil, err
		}
	case "HEAP":
		if err := db.rebuildTable(h, catalog.Heap, nil); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("engine: unsupported storage structure %q", st.Structure)
	}
	db.plans.invalidate()
	return &Result{RowsAffected: h.heap.Rows()}, nil
}

// statisticsSampleCap bounds how many rows CREATE STATISTICS reads per
// table; sampling keeps statistics collection cheap on big tables.
const statisticsSampleCap = 200000

func (db *DB) execCreateStatistics(st *sqlparser.CreateStatisticsStmt) (*Result, error) {
	h := db.handle(st.Table)
	if h == nil {
		return nil, fmt.Errorf("engine: unknown table %q", st.Table)
	}
	cols := st.Columns
	if len(cols) == 0 {
		cols = h.meta.Schema.Names()
	}
	idxs := make([]int, len(cols))
	for i, c := range cols {
		idxs[i] = h.meta.Schema.ColIndex(c)
		if idxs[i] < 0 {
			return nil, fmt.Errorf("engine: unknown column %s.%s", st.Table, c)
		}
	}
	samples := make([][]sqltypes.Value, len(cols))
	n := 0
	_, err := scanVisible(h, db.txns.realitySnapshot(), nil, func(_ storage.TID, row sqltypes.Row) (bool, error) {
		for i, ci := range idxs {
			samples[i] = append(samples[i], row[ci])
		}
		n++
		return n < statisticsSampleCap, nil
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cols {
		hgram := catalog.BuildHistogram(h.meta.Name, h.meta.Schema.Columns[idxs[i]].Name, samples[i], catalog.DefaultBuckets)
		// Scale counts up when the scan was truncated by the sample cap.
		if total := h.heap.Rows(); total > int64(n) && n > 0 {
			scale := float64(total) / float64(n)
			hgram.Rows = int64(float64(hgram.Rows) * scale)
			hgram.Nulls = int64(float64(hgram.Nulls) * scale)
			for bi := range hgram.Buckets {
				hgram.Buckets[bi].Rows = int64(float64(hgram.Buckets[bi].Rows) * scale)
			}
		}
		if err := db.cat.SetHistogram(hgram); err != nil {
			return nil, err
		}
		_ = c
	}
	db.plans.invalidate()
	return &Result{RowsAffected: int64(len(cols))}, nil
}
