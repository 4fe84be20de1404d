// Package nref generates a deterministic synthetic stand-in for the
// Non-Redundant Reference Protein (NREF) database the paper evaluates
// on. The real NREF is 100 M rows / ≈6.5 GB of protein data; this
// generator produces the same six-table schema with realistic skew at
// a configurable scale, plus two of the paper's workloads:
//
//   - Complex50: 50 multi-join analysis queries (the NREF2J/NREF3J mix)
//   - PointSelectStatement: single-table point selects (the "1m" test)
//
// Everything is seeded, so repeated runs see identical data and
// workloads.
package nref

import (
	"fmt"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/sqltypes"
)

// DefaultScale is the default number of proteins. The full NREF is
// vastly larger; this default keeps experiments laptop-sized while
// leaving the data well above buffer-pool capacity at default
// settings.
const DefaultScale = 20000

// Tables lists the six NREF tables.
var Tables = []string{"protein", "organism", "sequence", "taxonomy", "source", "annotation"}

// DDL returns the CREATE TABLE statements. Only primary keys, no other
// indexes — the paper's unoptimized setup ("using only primary keys
// and no other indexes", default storage structure heap).
func DDL() []string {
	return []string{
		`CREATE TABLE protein (
			nref_id VARCHAR(16) PRIMARY KEY,
			name VARCHAR(64),
			length INTEGER,
			taxonomy_id INTEGER,
			source_id INTEGER,
			mol_weight FLOAT)`,
		`CREATE TABLE organism (
			organism_id INTEGER,
			nref_id VARCHAR(16),
			organism_name VARCHAR(64),
			taxonomy_id INTEGER,
			PRIMARY KEY (nref_id, organism_id))`,
		`CREATE TABLE sequence (
			nref_id VARCHAR(16) PRIMARY KEY,
			sequence VARCHAR(256),
			crc VARCHAR(16),
			length INTEGER)`,
		`CREATE TABLE taxonomy (
			taxonomy_id INTEGER PRIMARY KEY,
			lineage VARCHAR(128),
			rank VARCHAR(16),
			parent_id INTEGER)`,
		`CREATE TABLE source (
			source_id INTEGER PRIMARY KEY,
			source_name VARCHAR(32),
			db_name VARCHAR(16),
			release_no INTEGER)`,
		`CREATE TABLE annotation (
			annotation_id INTEGER,
			nref_id VARCHAR(16),
			ordinal INTEGER,
			feature VARCHAR(32),
			val VARCHAR(64),
			PRIMARY KEY (nref_id, annotation_id))`,
	}
}

// NrefID formats the i-th protein identifier, matching the paper's
// "NF..." key style.
func NrefID(i int) string { return fmt.Sprintf("NF%08d", i) }

var (
	aminoAcids = "ACDEFGHIKLMNPQRSTVWY"
	ranks      = []string{"species", "genus", "family", "order", "class", "phylum"}
	features   = []string{"domain", "motif", "site", "repeat", "signal", "transit", "chain", "helix"}
	genera     = []string{
		"Escherichia", "Homo", "Mus", "Drosophila", "Saccharomyces", "Arabidopsis",
		"Bacillus", "Thermus", "Methanococcus", "Rattus", "Danio", "Caenorhabditis",
	}
)

// Generator produces the synthetic tables.
type Generator struct {
	Scale int // number of proteins
	Seed  int64
}

// NewGenerator returns a generator at the given scale (0 uses
// DefaultScale).
func NewGenerator(scale int, seed int64) *Generator {
	if scale <= 0 {
		scale = DefaultScale
	}
	return &Generator{Scale: scale, Seed: seed}
}

// TaxonomyCount returns the number of taxonomy rows at this scale.
func (g *Generator) TaxonomyCount() int {
	n := g.Scale / 50
	if n < 10 {
		n = 10
	}
	return n
}

// SourceCount returns the number of source rows.
func (g *Generator) SourceCount() int { return 20 }

func randSeq(r *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = aminoAcids[r.Intn(len(aminoAcids))]
	}
	return string(b)
}

// Load creates the six tables in db and fills them. Tables keep the
// default HEAP structure with primary keys only. The batch size trades
// memory for load speed.
func (g *Generator) Load(db *engine.DB) error {
	s := db.NewSession()
	defer s.Close()
	for _, ddl := range DDL() {
		if _, err := s.Exec(ddl); err != nil {
			return fmt.Errorf("nref: %w", err)
		}
	}
	r := rand.New(rand.NewSource(g.Seed))
	taxCount := g.TaxonomyCount()
	srcCount := g.SourceCount()

	// taxonomy
	var rows []sqltypes.Row
	for i := 0; i < taxCount; i++ {
		genus := genera[r.Intn(len(genera))]
		rows = append(rows, sqltypes.Row{
			sqltypes.NewInt(int64(i)),
			sqltypes.NewText(fmt.Sprintf("%s;clade%d;group%d", genus, i%37, i%11)),
			sqltypes.NewText(ranks[i%len(ranks)]),
			sqltypes.NewInt(int64(i / 7)),
		})
	}
	if err := db.BulkInsert("taxonomy", rows); err != nil {
		return err
	}

	// source
	rows = rows[:0]
	for i := 0; i < srcCount; i++ {
		rows = append(rows, sqltypes.Row{
			sqltypes.NewInt(int64(i)),
			sqltypes.NewText(fmt.Sprintf("source_db_%02d", i)),
			sqltypes.NewText([]string{"swissprot", "trembl", "pdb", "genbank"}[i%4]),
			sqltypes.NewInt(int64(40 + i)),
		})
	}
	if err := db.BulkInsert("source", rows); err != nil {
		return err
	}

	const batch = 2000
	// protein + sequence + organism + annotation, generated together so
	// foreign keys line up.
	var prot, seq, org, ann []sqltypes.Row
	orgID, annID := 0, 0
	flush := func() error {
		for _, p := range []struct {
			table string
			rows  *[]sqltypes.Row
		}{
			{"protein", &prot}, {"sequence", &seq}, {"organism", &org}, {"annotation", &ann},
		} {
			if len(*p.rows) == 0 {
				continue
			}
			if err := db.BulkInsert(p.table, *p.rows); err != nil {
				return err
			}
			*p.rows = (*p.rows)[:0]
		}
		return nil
	}
	for i := 0; i < g.Scale; i++ {
		id := NrefID(i)
		// Zipf-ish skew: low taxonomy ids are much more common, as in
		// real protein data where model organisms dominate.
		tax := int(float64(taxCount) * r.Float64() * r.Float64())
		length := 50 + r.Intn(950)
		prot = append(prot, sqltypes.Row{
			sqltypes.NewText(id),
			sqltypes.NewText(fmt.Sprintf("%s protein %d", features[i%len(features)], i)),
			sqltypes.NewInt(int64(length)),
			sqltypes.NewInt(int64(tax)),
			sqltypes.NewInt(int64(r.Intn(srcCount))),
			sqltypes.NewFloat(float64(length) * (105.0 + r.Float64()*10)),
		})
		seq = append(seq, sqltypes.Row{
			sqltypes.NewText(id),
			sqltypes.NewText(randSeq(r, 40+r.Intn(200))),
			sqltypes.NewText(fmt.Sprintf("%08X", r.Uint32())),
			sqltypes.NewInt(int64(length)),
		})
		// 1–2 organisms per protein.
		norg := 1 + r.Intn(2)
		for j := 0; j < norg; j++ {
			org = append(org, sqltypes.Row{
				sqltypes.NewInt(int64(orgID)),
				sqltypes.NewText(id),
				sqltypes.NewText(fmt.Sprintf("%s sp. %d", genera[tax%len(genera)], tax)),
				sqltypes.NewInt(int64(tax)),
			})
			orgID++
		}
		// 0–4 annotations per protein.
		nann := r.Intn(5)
		for j := 0; j < nann; j++ {
			ann = append(ann, sqltypes.Row{
				sqltypes.NewInt(int64(annID)),
				sqltypes.NewText(id),
				sqltypes.NewInt(int64(j)),
				sqltypes.NewText(features[r.Intn(len(features))]),
				sqltypes.NewText(fmt.Sprintf("pos %d..%d", r.Intn(length), r.Intn(length))),
			})
			annID++
		}
		if len(prot) >= batch {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	return db.Checkpoint()
}

// PointSelectStatement is the paper's 1m-test statement for protein i:
// the simplest possible primary-key select.
func PointSelectStatement(i, scale int) string {
	return fmt.Sprintf("SELECT p.nref_id FROM protein p WHERE p.nref_id = '%s'", NrefID(i%scale))
}

// Complex50 returns the 50-query analysis mix standing in for the
// NREF2J/NREF3J sets: multi-way joins, range predicates, aggregation
// and sorting — "expensive joins and many full table scans".
func Complex50(scale int) []string {
	if scale <= 0 {
		scale = DefaultScale
	}
	r := rand.New(rand.NewSource(77))
	var qs []string
	add := func(q string) { qs = append(qs, q) }

	for len(qs) < 50 {
		switch len(qs) % 10 {
		case 0: // 2-join aggregate by taxonomy rank
			add(fmt.Sprintf(`SELECT t.rank, COUNT(*), AVG(p.mol_weight)
				FROM protein p JOIN taxonomy t ON p.taxonomy_id = t.taxonomy_id
				WHERE p.length > %d GROUP BY t.rank ORDER BY t.rank`, 100+r.Intn(400)))
		case 1: // 3-join drilling into a narrow key window
			lo := r.Intn(scale - scale/20 - 1)
			add(fmt.Sprintf(`SELECT p.nref_id, s.crc, t.lineage
				FROM protein p JOIN sequence s ON p.nref_id = s.nref_id
				JOIN taxonomy t ON p.taxonomy_id = t.taxonomy_id
				WHERE p.nref_id BETWEEN '%s' AND '%s' AND t.rank = '%s'
				ORDER BY p.nref_id LIMIT 500`,
				NrefID(lo), NrefID(lo+scale/20), ranks[r.Intn(len(ranks))]))
		case 2: // organism counts per genus-ish prefix
			add(fmt.Sprintf(`SELECT o.organism_name, COUNT(*) cnt
				FROM organism o JOIN protein p ON o.nref_id = p.nref_id
				WHERE p.source_id < %d GROUP BY o.organism_name
				HAVING COUNT(*) > 1 ORDER BY cnt DESC LIMIT 50`, 4+r.Intn(12)))
		case 3: // annotation drill-down for one protein window
			lo := r.Intn(scale - scale/50 - 1)
			add(fmt.Sprintf(`SELECT a.feature, COUNT(*), MAX(p.length)
				FROM annotation a JOIN protein p ON a.nref_id = p.nref_id
				WHERE a.nref_id BETWEEN '%s' AND '%s'
				GROUP BY a.feature ORDER BY a.feature`,
				NrefID(lo), NrefID(lo+scale/50)))
		case 4: // heavy 3-join with sort
			add(fmt.Sprintf(`SELECT p.nref_id, p.name, o.organism_name
				FROM protein p JOIN organism o ON p.nref_id = o.nref_id
				JOIN source sr ON p.source_id = sr.source_id
				WHERE sr.db_name = '%s' AND p.length > %d
				ORDER BY p.mol_weight DESC LIMIT 200`,
				[]string{"swissprot", "trembl", "pdb", "genbank"}[r.Intn(4)], 200+r.Intn(500)))
		case 5: // distinct lineages in a narrow weight band
			lo := 10000 + r.Intn(60000)
			add(fmt.Sprintf(`SELECT DISTINCT t.lineage
				FROM taxonomy t JOIN protein p ON t.taxonomy_id = p.taxonomy_id
				WHERE p.mol_weight BETWEEN %d AND %d LIMIT 300`,
				lo, lo+2500))
		case 6: // self-ish chain: sequence stats per source
			add(fmt.Sprintf(`SELECT sr.source_name, COUNT(*), AVG(s.length)
				FROM protein p JOIN sequence s ON p.nref_id = s.nref_id
				JOIN source sr ON p.source_id = sr.source_id
				WHERE s.length < %d GROUP BY sr.source_name ORDER BY 2 DESC`,
				300+r.Intn(600)))
		case 7: // annotations for a narrow window of proteins
			lo := r.Intn(scale - scale/30 - 1)
			add(fmt.Sprintf(`SELECT a.nref_id, COUNT(*) n
				FROM annotation a
				WHERE a.nref_id BETWEEN '%s' AND '%s' AND a.ordinal >= %d
				GROUP BY a.nref_id HAVING COUNT(*) >= %d ORDER BY n DESC LIMIT 100`,
				NrefID(lo), NrefID(lo+scale/30), r.Intn(2), 1+r.Intn(2)))
		case 8: // taxonomy rollup
			add(fmt.Sprintf(`SELECT t.parent_id, COUNT(*), MIN(p.length), MAX(p.length)
				FROM protein p JOIN taxonomy t ON p.taxonomy_id = t.taxonomy_id
				WHERE t.taxonomy_id < %d GROUP BY t.parent_id ORDER BY 1`,
				scale/100+r.Intn(scale/100+2)))
		case 9: // wide 4-join
			add(fmt.Sprintf(`SELECT COUNT(*)
				FROM protein p JOIN organism o ON p.nref_id = o.nref_id
				JOIN taxonomy t ON o.taxonomy_id = t.taxonomy_id
				JOIN source sr ON p.source_id = sr.source_id
				WHERE t.rank = '%s' AND sr.release_no > %d AND p.length > %d`,
				ranks[r.Intn(len(ranks))], 42+r.Intn(10), 100+r.Intn(300)))
		}
	}
	return qs
}
