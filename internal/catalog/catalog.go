// Package catalog implements the system catalog: descriptions of
// tables, attributes, secondary indexes (real and virtual) and column
// histograms. The catalog is an in-memory structure persisted as JSON
// in the database directory — it plays the role of the Ingres system
// catalogs that the paper's monitor reads "right at the source".
package catalog

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sqltypes"
)

// Structure names a table's storage structure.
type Structure string

// The storage structures of the engine. Heap is the Ingres default;
// BTree keeps rows ordered by a key and never accumulates overflow
// pages.
const (
	Heap  Structure = "HEAP"
	BTree Structure = "BTREE"
)

// Table describes one base table.
type Table struct {
	Name       string          `json:"name"`
	Schema     sqltypes.Schema `json:"schema"`
	Structure  Structure       `json:"structure"`
	PrimaryKey []string        `json:"primary_key,omitempty"`
	// StorageKey is the key the BTREE storage structure clusters on
	// (MODIFY ... TO BTREE ON ...); it defaults to the primary key and,
	// unlike it, does not imply uniqueness.
	StorageKey []string  `json:"storage_key,omitempty"`
	MainPages  uint32    `json:"main_pages"`
	Rows       int64     `json:"rows"`
	Created    time.Time `json:"created"`
}

// Index describes a secondary index. In Ingres, a secondary index is
// itself a table of (key columns, TID); a Virtual index exists only in
// the catalog so the optimizer can cost it without building it — the
// what-if mechanism of [Chaudhuri & Narasayya 1998] the paper reuses.
type Index struct {
	Name    string    `json:"name"`
	Table   string    `json:"table"`
	Columns []string  `json:"columns"`
	Unique  bool      `json:"unique"`
	Virtual bool      `json:"virtual"`
	Created time.Time `json:"created"`
	// Building marks an index build in progress: the entry
	// reserves the name but the index is invisible to the optimizer and
	// to DML maintenance until the build publishes it. A Building entry
	// found at engine open is a crashed build; recovery drops it and
	// removes its file.
	Building bool `json:"building,omitempty"`
}

// Catalog is the set of tables, indexes and histograms of one database.
// It is safe for concurrent use.
type Catalog struct {
	mu         sync.RWMutex
	path       string // file path; empty for purely in-memory catalogs
	tables     map[string]*Table
	indexes    map[string]*Index
	histograms map[string]*Histogram // key: table + "." + column (lower)
	txn        TxnStatus
}

// TxnStatus is the persisted MVCC transaction state, written at
// checkpoint. NextTxnID is a lower bound on the id allocator after
// restart (recovery also scans WAL owners for a higher floor). Aborted
// lists transaction ids whose versions are invisible but may still be
// referenced by on-disk records; vacuum retires them. Inflight lists
// ids that were open at checkpoint time — recovery treats any of them
// without a durable WAL commit record as aborted.
type TxnStatus struct {
	NextTxnID uint64   `json:"next_txn_id,omitempty"`
	Aborted   []uint64 `json:"aborted,omitempty"`
	Inflight  []uint64 `json:"inflight,omitempty"`
}

type catalogFile struct {
	Tables     []*Table     `json:"tables"`
	Indexes    []*Index     `json:"indexes"`
	Histograms []*Histogram `json:"histograms"`
	Txn        TxnStatus    `json:"txn,omitempty"`
}

// New creates an empty in-memory catalog.
func New() *Catalog {
	return &Catalog{
		tables:     map[string]*Table{},
		indexes:    map[string]*Index{},
		histograms: map[string]*Histogram{},
	}
}

// Load opens the catalog stored in dir (creating an empty one if the
// file does not exist) and ties the catalog to that file for Save.
func Load(dir string) (*Catalog, error) {
	c := New()
	c.path = filepath.Join(dir, "catalog.json")
	data, err := os.ReadFile(c.path)
	if os.IsNotExist(err) {
		return c, nil
	}
	if err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	var cf catalogFile
	if err := json.Unmarshal(data, &cf); err != nil {
		return nil, fmt.Errorf("catalog: corrupt %s: %w", c.path, err)
	}
	for _, t := range cf.Tables {
		c.tables[lower(t.Name)] = t
	}
	for _, ix := range cf.Indexes {
		c.indexes[lower(ix.Name)] = ix
	}
	for _, h := range cf.Histograms {
		c.histograms[histKey(h.Table, h.Column)] = h
	}
	c.txn = cf.Txn
	return c, nil
}

// TxnStatus returns the persisted MVCC transaction state.
func (c *Catalog) TxnStatus() TxnStatus {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.txn
}

// SetTxnStatus replaces the persisted MVCC transaction state. The
// caller follows with Save (typically at checkpoint).
func (c *Catalog) SetTxnStatus(ts TxnStatus) {
	c.mu.Lock()
	c.txn = ts
	c.mu.Unlock()
}

// SyncTableStats updates the physical counters of a table entry under
// the catalog lock. Commit paths call this concurrently with
// checkpoint's Save, which marshals the same Table structs — the lock
// is what keeps the JSON encoder from reading the fields mid-write.
func (c *Catalog) SyncTableStats(name string, rows int64, mainPages uint32) {
	c.mu.Lock()
	if t := c.tables[lower(name)]; t != nil {
		t.Rows = rows
		t.MainPages = mainPages
	}
	c.mu.Unlock()
}

// Save writes the catalog to its backing file, if any.
func (c *Catalog) Save() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.saveLocked()
}

func (c *Catalog) saveLocked() error {
	if c.path == "" {
		return nil
	}
	var cf catalogFile
	cf.Txn = c.txn
	for _, t := range c.tables {
		cf.Tables = append(cf.Tables, t)
	}
	for _, ix := range c.indexes {
		cf.Indexes = append(cf.Indexes, ix)
	}
	for _, h := range c.histograms {
		cf.Histograms = append(cf.Histograms, h)
	}
	sort.Slice(cf.Tables, func(i, j int) bool { return cf.Tables[i].Name < cf.Tables[j].Name })
	sort.Slice(cf.Indexes, func(i, j int) bool { return cf.Indexes[i].Name < cf.Indexes[j].Name })
	sort.Slice(cf.Histograms, func(i, j int) bool {
		if cf.Histograms[i].Table != cf.Histograms[j].Table {
			return cf.Histograms[i].Table < cf.Histograms[j].Table
		}
		return cf.Histograms[i].Column < cf.Histograms[j].Column
	})
	data, err := json.MarshalIndent(&cf, "", " ")
	if err != nil {
		return err
	}
	tmp := c.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	// The temp file must be durable BEFORE the rename publishes it: a
	// crash after an unsynced rename can leave the catalog pointing at
	// empty or partial content — rename orders nothing by itself.
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	fsyncs.Add(1)
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, c.path); err != nil {
		return err
	}
	// And the directory entry for the rename itself.
	if d, err := os.Open(filepath.Dir(c.path)); err == nil {
		serr := d.Sync()
		d.Close()
		if serr == nil {
			fsyncs.Add(1)
		}
	}
	return nil
}

// fsyncs counts catalog fsyncs (temp-file and directory syncs) for
// durability regression tests.
var fsyncs atomic.Int64

// Fsyncs returns the process-wide count of fsyncs the catalog issued
// while saving.
func Fsyncs() int64 { return fsyncs.Load() }

func lower(s string) string { return strings.ToLower(s) }

func histKey(table, col string) string { return lower(table) + "." + lower(col) }

// AddTable registers a new table.
func (c *Catalog) AddTable(t *Table) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := lower(t.Name)
	if _, exists := c.tables[key]; exists {
		return fmt.Errorf("catalog: table %s already exists", t.Name)
	}
	if t.Created.IsZero() {
		t.Created = time.Now()
	}
	c.tables[key] = t
	return c.saveLocked()
}

// Table returns the named table, or nil.
func (c *Catalog) Table(name string) *Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tables[lower(name)]
}

// Tables returns all tables sorted by name.
func (c *Catalog) Tables() []*Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// DropTable removes a table, its indexes and its histograms.
func (c *Catalog) DropTable(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := lower(name)
	if _, ok := c.tables[key]; !ok {
		return fmt.Errorf("catalog: table %s does not exist", name)
	}
	delete(c.tables, key)
	for ixName, ix := range c.indexes {
		if lower(ix.Table) == key {
			delete(c.indexes, ixName)
		}
	}
	for hk, h := range c.histograms {
		if lower(h.Table) == key {
			delete(c.histograms, hk)
		}
	}
	return c.saveLocked()
}

// UpdateTable applies fn to the named table under the catalog lock, as
// SyncTableStats does, so a concurrent Save never marshals the entry
// mid-write. The caller saves.
func (c *Catalog) UpdateTable(name string, fn func(*Table)) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[lower(name)]
	if !ok {
		return fmt.Errorf("catalog: table %s does not exist", name)
	}
	fn(t)
	return nil
}

// AddIndex registers a secondary index (real or virtual).
func (c *Catalog) AddIndex(ix *Index) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := lower(ix.Name)
	if _, exists := c.indexes[key]; exists {
		return fmt.Errorf("catalog: index %s already exists", ix.Name)
	}
	if _, exists := c.tables[lower(ix.Table)]; !exists {
		return fmt.Errorf("catalog: index %s references unknown table %s", ix.Name, ix.Table)
	}
	t := c.tables[lower(ix.Table)]
	for _, col := range ix.Columns {
		if t.Schema.ColIndex(col) < 0 {
			return fmt.Errorf("catalog: index %s references unknown column %s.%s", ix.Name, ix.Table, col)
		}
	}
	if ix.Created.IsZero() {
		ix.Created = time.Now()
	}
	c.indexes[key] = ix
	return c.saveLocked()
}

// Index returns the named index, or nil.
func (c *Catalog) Index(name string) *Index {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.indexes[lower(name)]
}

// DropIndex removes an index.
func (c *Catalog) DropIndex(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.indexes[lower(name)]; !ok {
		return fmt.Errorf("catalog: index %s does not exist", name)
	}
	delete(c.indexes, lower(name))
	return c.saveLocked()
}

// FinishIndexBuild clears the Building flag on a freshly built index,
// publishing it to the optimizer and to DML maintenance, and persists
// the catalog. The caller must have made the index file durable first.
func (c *Catalog) FinishIndexBuild(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ix, ok := c.indexes[lower(name)]
	if !ok {
		return fmt.Errorf("catalog: index %s does not exist", name)
	}
	if !ix.Building {
		return fmt.Errorf("catalog: index %s is not being built", name)
	}
	ix.Building = false
	return c.saveLocked()
}

// TableIndexes returns the indexes on a table, sorted by name. Virtual
// indexes are included only when withVirtual is set — the executor asks
// without, the what-if optimizer with.
func (c *Catalog) TableIndexes(table string, withVirtual bool) []*Index {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []*Index
	for _, ix := range c.indexes {
		if ix.Building {
			continue // half-built: invisible until the build publishes it
		}
		if lower(ix.Table) == lower(table) && (withVirtual || !ix.Virtual) {
			out = append(out, ix)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Indexes returns every index, sorted by name.
func (c *Catalog) Indexes() []*Index {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Index, 0, len(c.indexes))
	for _, ix := range c.indexes {
		out = append(out, ix)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SetHistogram stores a histogram for table.column.
func (c *Catalog) SetHistogram(h *Histogram) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.histograms[histKey(h.Table, h.Column)] = h
	return c.saveLocked()
}

// Histogram returns the histogram for table.column, or nil if the
// column has no statistics — the condition the analyzer's "create
// statistics" rule looks for.
func (c *Catalog) Histogram(table, col string) *Histogram {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.histograms[histKey(table, col)]
}

// Histograms returns every histogram.
func (c *Catalog) Histograms() []*Histogram {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Histogram, 0, len(c.histograms))
	for _, h := range c.histograms {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Table != out[j].Table {
			return out[i].Table < out[j].Table
		}
		return out[i].Column < out[j].Column
	})
	return out
}
