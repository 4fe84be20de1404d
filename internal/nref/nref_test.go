package nref

import (
	"strings"
	"testing"

	"repro/internal/engine"
)

func loadSmall(t *testing.T) (*engine.DB, *engine.Session) {
	t.Helper()
	db, err := engine.Open(engine.Config{Dir: t.TempDir(), PoolPages: 512})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	g := NewGenerator(500, 1)
	if err := g.Load(db); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	t.Cleanup(s.Close)
	return db, s
}

func TestLoadCreatesAllTables(t *testing.T) {
	db, s := loadSmall(t)
	for _, tbl := range Tables {
		res, err := s.Exec("SELECT COUNT(*) FROM " + tbl)
		if err != nil {
			t.Fatalf("%s: %v", tbl, err)
		}
		if res.Rows[0][0].I == 0 {
			t.Errorf("table %s is empty", tbl)
		}
	}
	// Only pk indexes exist.
	for _, ix := range db.Catalog().Indexes() {
		if !strings.HasPrefix(ix.Name, "pk_") {
			t.Errorf("unexpected index %s on unoptimized load", ix.Name)
		}
	}
	// Tables are heap structured.
	if db.Catalog().Table("protein").Structure != "HEAP" {
		t.Error("protein not HEAP")
	}
}

func TestLoadIsDeterministic(t *testing.T) {
	_, s1 := loadSmall(t)
	_, s2 := loadSmall(t)
	q := "SELECT nref_id, name, length, taxonomy_id FROM protein WHERE nref_id = 'NF00000042'"
	r1, err := s1.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s2.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Rows) != 1 || len(r2.Rows) != 1 {
		t.Fatalf("rows: %d/%d", len(r1.Rows), len(r2.Rows))
	}
	for i := range r1.Rows[0] {
		if r1.Rows[0][i].String() != r2.Rows[0][i].String() {
			t.Errorf("col %d differs: %v vs %v", i, r1.Rows[0][i], r2.Rows[0][i])
		}
	}
}

func TestForeignKeysLineUp(t *testing.T) {
	_, s := loadSmall(t)
	// Every organism row joins back to a protein.
	res, err := s.Exec(`SELECT COUNT(*) FROM organism o JOIN protein p ON o.nref_id = p.nref_id`)
	if err != nil {
		t.Fatal(err)
	}
	orgs, err := s.Exec("SELECT COUNT(*) FROM organism")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != orgs.Rows[0][0].I {
		t.Errorf("dangling organisms: joined %v of %v", res.Rows[0][0], orgs.Rows[0][0])
	}
	// Taxonomy ids in range.
	res, err = s.Exec("SELECT COUNT(*) FROM protein p JOIN taxonomy t ON p.taxonomy_id = t.taxonomy_id")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 500 {
		t.Errorf("protein-taxonomy join count = %v, want 500", res.Rows[0][0])
	}
}

func TestSkewExists(t *testing.T) {
	_, s := loadSmall(t)
	res, err := s.Exec(`SELECT taxonomy_id, COUNT(*) c FROM protein GROUP BY taxonomy_id ORDER BY c DESC LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	top := res.Rows[0][1].I
	if top < 5 { // 500 proteins over ~10 taxa with quadratic skew
		t.Errorf("no visible skew: top taxon has %d proteins", top)
	}
}

func TestWorkloadStatements(t *testing.T) {
	if got := PointSelectStatement(3, 500); !strings.Contains(got, "NF00000003") {
		t.Errorf("point select: %s", got)
	}
	if got := PointSelectStatement(503, 500); !strings.Contains(got, "NF00000003") {
		t.Errorf("point select wraps scale: %s", got)
	}

	qs := Complex50(500)
	if len(qs) != 50 {
		t.Fatalf("Complex50 returned %d queries", len(qs))
	}
	// Deterministic.
	qs2 := Complex50(500)
	for i := range qs {
		if qs[i] != qs2[i] {
			t.Fatalf("query %d differs between calls", i)
		}
	}
}

func TestComplex50AllExecute(t *testing.T) {
	_, s := loadSmall(t)
	for i, q := range Complex50(500) {
		if _, err := s.Exec(q); err != nil {
			t.Errorf("query %d failed: %v\n%s", i, err, q)
		}
	}
}

func TestSimpleWorkloadsExecute(t *testing.T) {
	_, s := loadSmall(t)
	for i := 0; i < 20; i++ {
		res, err := s.Exec(PointSelectStatement(i, 500))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Errorf("point select %d returned %d rows", i, len(res.Rows))
		}
	}
}
