package main

// The benchmark's own copy of the NREF substrate: schema, seeded data
// generator, statement templates and the 33-index reference design.
// It deliberately does not import internal/nref, so editing that
// package can never silently change the benchmark's traffic.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/engine"
	"repro/internal/sqltypes"
)

var nrefTables = []string{"protein", "organism", "sequence", "taxonomy", "source", "annotation"}

func nrefDDL() []string {
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

func nrefID(i int) string { return fmt.Sprintf("NF%08d", i) }

var (
	aminoAcids = "ACDEFGHIKLMNPQRSTVWY"
	ranks      = []string{"species", "genus", "family", "order", "class", "phylum"}
	features   = []string{"domain", "motif", "site", "repeat", "signal", "transit", "chain", "helix"}
	dbNames    = []string{"swissprot", "trembl", "pdb", "genbank"}
	genera     = []string{
		"Escherichia", "Homo", "Mus", "Drosophila", "Saccharomyces", "Arabidopsis",
		"Bacillus", "Thermus", "Methanococcus", "Rattus", "Danio", "Caenorhabditis",
	}
)

const sourceCount = 20

// dataset is what the driver remembers about the generated data so it
// can check results without asking the system under test.
type dataset struct {
	scale   int
	rows    int64   // rows loaded across all six tables
	lengths []int64 // protein.length as loaded, by protein number
}

func taxonomyCount(scale int) int {
	if n := scale / 50; n > 10 {
		return n
	}
	return 10
}

// loadNREF creates the six tables (heap, primary keys only) and fills
// them with scale proteins derived from seed.
func loadNREF(db *engine.DB, scale int, seed int64) (*dataset, error) {
	s := db.NewSession()
	defer s.Close()
	for _, ddl := range nrefDDL() {
		if _, err := s.Exec(ddl); err != nil {
			return nil, fmt.Errorf("create nref schema: %w", err)
		}
	}
	r := rand.New(rand.NewSource(seed))
	ds := &dataset{scale: scale, lengths: make([]int64, scale)}
	taxCount := taxonomyCount(scale)

	insert := func(table string, rows []sqltypes.Row) error {
		ds.rows += int64(len(rows))
		if err := db.BulkInsert(table, rows); err != nil {
			return fmt.Errorf("load %s: %w", table, err)
		}
		return nil
	}

	var rows []sqltypes.Row
	for i := 0; i < taxCount; i++ {
		rows = append(rows, sqltypes.Row{
			sqltypes.NewInt(int64(i)),
			sqltypes.NewText(fmt.Sprintf("%s;clade%d;group%d", genera[r.Intn(len(genera))], i%37, i%11)),
			sqltypes.NewText(ranks[i%len(ranks)]),
			sqltypes.NewInt(int64(i / 7)),
		})
	}
	if err := insert("taxonomy", rows); err != nil {
		return nil, err
	}
	rows = rows[:0]
	for i := 0; i < sourceCount; i++ {
		rows = append(rows, sqltypes.Row{
			sqltypes.NewInt(int64(i)),
			sqltypes.NewText(fmt.Sprintf("source_db_%02d", i)),
			sqltypes.NewText(dbNames[i%len(dbNames)]),
			sqltypes.NewInt(int64(40 + i)),
		})
	}
	if err := insert("source", rows); err != nil {
		return nil, err
	}

	// protein, sequence, organism and annotation are generated together
	// so foreign keys line up, and flushed in batches to bound memory.
	const batch = 2000
	var prot, seq, org, ann []sqltypes.Row
	orgID, annID := 0, 0
	flush := func() error {
		for _, p := range []struct {
			table string
			rows  *[]sqltypes.Row
		}{{"protein", &prot}, {"sequence", &seq}, {"organism", &org}, {"annotation", &ann}} {
			if len(*p.rows) == 0 {
				continue
			}
			if err := insert(p.table, *p.rows); err != nil {
				return err
			}
			*p.rows = (*p.rows)[:0]
		}
		return nil
	}
	seqBuf := make([]byte, 256)
	for i := 0; i < scale; i++ {
		id := nrefID(i)
		// Squared uniform: low taxonomy ids dominate, as model
		// organisms do in real protein data.
		tax := int(float64(taxCount) * r.Float64() * r.Float64())
		length := 50 + r.Intn(950)
		ds.lengths[i] = int64(length)
		prot = append(prot, sqltypes.Row{
			sqltypes.NewText(id),
			sqltypes.NewText(fmt.Sprintf("%s protein %d", features[i%len(features)], i)),
			sqltypes.NewInt(int64(length)),
			sqltypes.NewInt(int64(tax)),
			sqltypes.NewInt(int64(r.Intn(sourceCount))),
			sqltypes.NewFloat(float64(length) * (105.0 + r.Float64()*10)),
		})
		sb := seqBuf[:40+r.Intn(200)]
		for j := range sb {
			sb[j] = aminoAcids[r.Intn(len(aminoAcids))]
		}
		seq = append(seq, sqltypes.Row{
			sqltypes.NewText(id),
			sqltypes.NewText(string(sb)),
			sqltypes.NewText(fmt.Sprintf("%08X", r.Uint32())),
			sqltypes.NewInt(int64(length)),
		})
		for j, n := 0, 1+r.Intn(2); j < n; j++ {
			org = append(org, sqltypes.Row{
				sqltypes.NewInt(int64(orgID)),
				sqltypes.NewText(id),
				sqltypes.NewText(fmt.Sprintf("%s sp. %d", genera[tax%len(genera)], tax)),
				sqltypes.NewInt(int64(tax)),
			})
			orgID++
		}
		for j, n := 0, r.Intn(5); j < n; j++ {
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
				return nil, err
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return ds, nil
}

// referenceIndexes is the 33-index manual reference design the paper
// compares the analyzer against: broad and partly redundant.
func referenceIndexes() []string {
	spec := []struct{ table, cols string }{
		{"protein", "name"}, {"protein", "length"}, {"protein", "taxonomy_id"},
		{"protein", "source_id"}, {"protein", "mol_weight"}, {"protein", "taxonomy_id, length"},
		{"protein", "source_id, length"}, {"protein", "length, mol_weight"},
		{"organism", "nref_id"}, {"organism", "organism_name"}, {"organism", "taxonomy_id"},
		{"organism", "nref_id, taxonomy_id"}, {"organism", "organism_name, taxonomy_id"},
		{"sequence", "length"}, {"sequence", "crc"}, {"sequence", "length, crc"},
		{"taxonomy", "lineage"}, {"taxonomy", "rank"}, {"taxonomy", "parent_id"},
		{"taxonomy", "rank, parent_id"}, {"taxonomy", "parent_id, rank"},
		{"source", "source_name"}, {"source", "db_name"}, {"source", "release_no"},
		{"source", "db_name, release_no"},
		{"annotation", "nref_id"}, {"annotation", "feature"}, {"annotation", "ordinal"},
		{"annotation", "nref_id, ordinal"}, {"annotation", "feature, ordinal"},
		{"annotation", "nref_id, feature"},
		{"protein", "name, length"}, {"organism", "taxonomy_id, organism_name"},
	}
	out := make([]string, len(spec))
	for i, x := range spec {
		out[i] = fmt.Sprintf("CREATE INDEX rx%02d ON %s (%s)", i+1, x.table, x.cols)
	}
	return out
}

// complexMix returns the 50-query analysis mix (the paper's "50"
// test): ten templates, five rounds. Two rules keep it usable as a
// benchmark. Every result is plan-independent — ORDER BY before LIMIT
// is total — so one fingerprint per query holds across serial and
// parallel execution and across physical designs. And the seed moves
// only where a predicate looks (window position, a threshold within a
// few percent), never how much it selects, so runs with different
// seeds do the same amount of work.
func complexMix(scale int, seed int64) []string {
	r := rand.New(rand.NewSource(seed ^ 0x5eed50))
	var qs []string
	window := func(width int) (string, string) {
		lo := r.Intn(scale - width - 1)
		return nrefID(lo), nrefID(lo + width)
	}
	for round := 0; round < 5; round++ {
		jit := func(n int) int { return r.Intn(n) }
		lo, hi := window(scale / 20)
		qs = append(qs,
			fmt.Sprintf(`SELECT t.rank, COUNT(*), AVG(p.mol_weight)
				FROM protein p JOIN taxonomy t ON p.taxonomy_id = t.taxonomy_id
				WHERE p.length > %d GROUP BY t.rank ORDER BY t.rank`, 150+70*round+jit(20)),
			fmt.Sprintf(`SELECT p.nref_id, s.crc, t.lineage
				FROM protein p JOIN sequence s ON p.nref_id = s.nref_id
				JOIN taxonomy t ON p.taxonomy_id = t.taxonomy_id
				WHERE p.nref_id BETWEEN '%s' AND '%s' AND t.rank = '%s'
				ORDER BY p.nref_id LIMIT 500`, lo, hi, ranks[round%len(ranks)]),
			fmt.Sprintf(`SELECT o.organism_name, COUNT(*) cnt
				FROM organism o JOIN protein p ON o.nref_id = p.nref_id
				WHERE p.source_id < %d GROUP BY o.organism_name
				HAVING COUNT(*) > 1 ORDER BY cnt DESC, o.organism_name LIMIT 50`, 5+2*round),
		)
		lo, hi = window(scale / 50)
		qs = append(qs,
			fmt.Sprintf(`SELECT a.feature, COUNT(*), MAX(p.length)
				FROM annotation a JOIN protein p ON a.nref_id = p.nref_id
				WHERE a.nref_id BETWEEN '%s' AND '%s'
				GROUP BY a.feature ORDER BY a.feature`, lo, hi),
			fmt.Sprintf(`SELECT p.nref_id, p.name, o.organism_name
				FROM protein p JOIN organism o ON p.nref_id = o.nref_id
				JOIN source sr ON p.source_id = sr.source_id
				WHERE sr.db_name = '%s' AND p.length > %d
				ORDER BY p.mol_weight DESC, o.organism_id LIMIT 200`,
				dbNames[round%len(dbNames)], 250+100*round+jit(20)),
		)
		wlo := 20000 + 12000*round + jit(500)
		qs = append(qs,
			fmt.Sprintf(`SELECT DISTINCT t.lineage
				FROM taxonomy t JOIN protein p ON t.taxonomy_id = p.taxonomy_id
				WHERE p.mol_weight BETWEEN %d AND %d ORDER BY t.lineage LIMIT 300`, wlo, wlo+2500),
			fmt.Sprintf(`SELECT sr.source_name, COUNT(*), AVG(s.length)
				FROM protein p JOIN sequence s ON p.nref_id = s.nref_id
				JOIN source sr ON p.source_id = sr.source_id
				WHERE s.length < %d GROUP BY sr.source_name ORDER BY sr.source_name`,
				350+120*round+jit(20)),
		)
		lo, hi = window(scale / 30)
		qs = append(qs,
			fmt.Sprintf(`SELECT a.nref_id, COUNT(*) n
				FROM annotation a
				WHERE a.nref_id BETWEEN '%s' AND '%s' AND a.ordinal >= %d
				GROUP BY a.nref_id HAVING COUNT(*) >= %d ORDER BY n DESC, a.nref_id LIMIT 100`,
				lo, hi, round%2, 1+round%2),
			fmt.Sprintf(`SELECT t.parent_id, COUNT(*), MIN(p.length), MAX(p.length)
				FROM protein p JOIN taxonomy t ON p.taxonomy_id = t.taxonomy_id
				WHERE t.taxonomy_id < %d GROUP BY t.parent_id ORDER BY t.parent_id`,
				taxonomyCount(scale)/4+round*taxonomyCount(scale)/10+jit(3)),
			fmt.Sprintf(`SELECT COUNT(*)
				FROM protein p JOIN organism o ON p.nref_id = o.nref_id
				JOIN taxonomy t ON o.taxonomy_id = t.taxonomy_id
				JOIN source sr ON p.source_id = sr.source_id
				WHERE t.rank = '%s' AND sr.release_no > %d AND p.length > %d`,
				ranks[(round+2)%len(ranks)], 43+2*round, 120+60*round+jit(20)),
		)
	}
	return qs
}

func pointSelectSQL(key int) string {
	return "SELECT p.nref_id, p.length FROM protein p WHERE p.nref_id = '" + nrefID(key) + "'"
}

func simpleJoinSQL(key int) string {
	return "SELECT p.nref_id, o.organism_name, o.taxonomy_id FROM protein p JOIN organism o ON p.nref_id = o.nref_id WHERE p.nref_id = '" + nrefID(key) + "'"
}

// zipf draws ranks from a Zipfian distribution with exponent s < 1
// (math/rand's Zipf needs s > 1) and maps them through a seeded
// permutation, so hot keys are spread over the key space rather than
// packed onto the first pages.
type zipf struct {
	cdf  []float64
	perm []int
}

func newZipf(n int, s float64, r *rand.Rand) *zipf {
	z := &zipf{cdf: make([]float64, n), perm: r.Perm(n)}
	sum := 0.0
	for i := range z.cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

func (z *zipf) next(r *rand.Rand) int {
	i := sort.SearchFloat64s(z.cdf, r.Float64())
	if i >= len(z.perm) {
		i = len(z.perm) - 1
	}
	return z.perm[i]
}
