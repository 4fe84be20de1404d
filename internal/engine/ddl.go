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
	// A primary key is enforced through an automatically created
	// unique index (the storage structure stays HEAP until MODIFY, as
	// in Ingres). The table is empty, so there is nothing to build:
	// openTable creates the empty index file with the heap's.
	if len(pk) > 0 {
		if err := db.cat.AddIndex(&catalog.Index{
			Name:    "pk_" + strings.ToLower(st.Name),
			Table:   st.Name,
			Columns: pk,
			Unique:  true,
		}); err != nil {
			return nil, errors.Join(err, db.cat.DropTable(st.Name))
		}
	}
	if err := db.openTable(meta); err != nil {
		return nil, err
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
