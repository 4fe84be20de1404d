package sqlparser

import (
	"math/rand"
	"testing"
)

// TestParserNeverPanics feeds the parser mutated fragments of valid
// SQL and random byte soup; it may reject them but must never panic.
func TestParserNeverPanics(t *testing.T) {
	seeds := []string{
		"SELECT a, b FROM t WHERE a = 5 AND b LIKE 'x%' ORDER BY a DESC LIMIT 3",
		"INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')",
		"CREATE TABLE t (a INTEGER PRIMARY KEY, b VARCHAR(10))",
		"UPDATE t SET a = a + 1 WHERE b IN (1, 2, 3)",
		"MODIFY t TO BTREE ON a",
		"CREATE STATISTICS FOR t (a)",
		"SELECT COUNT(*) FROM a JOIN b ON a.x = b.y GROUP BY z HAVING COUNT(*) > 1",
	}
	r := rand.New(rand.NewSource(123))
	mutate := func(s string) string {
		b := []byte(s)
		switch r.Intn(5) {
		case 0: // drop a range
			if len(b) > 4 {
				i := r.Intn(len(b) - 2)
				j := i + 1 + r.Intn(len(b)-i-1)
				b = append(b[:i], b[j:]...)
			}
		case 1: // random byte flip
			if len(b) > 0 {
				b[r.Intn(len(b))] = byte(r.Intn(256))
			}
		case 2: // duplicate a chunk
			if len(b) > 4 {
				i := r.Intn(len(b) - 2)
				b = append(b[:i], append([]byte(string(b[i:])), b[i:]...)...)
			}
		case 3: // truncate
			b = b[:r.Intn(len(b)+1)]
		case 4: // insert noise
			noise := []string{"'", "(", ")", ",", "SELECT", "%", "--", "\x00", "🦉"}
			n := noise[r.Intn(len(noise))]
			i := r.Intn(len(b) + 1)
			b = append(b[:i], append([]byte(n), b[i:]...)...)
		}
		return string(b)
	}
	for i := 0; i < 20000; i++ {
		s := seeds[r.Intn(len(seeds))]
		for m := 0; m < 1+r.Intn(3); m++ {
			s = mutate(s)
		}
		// Both entry points must survive.
		Parse(s)           //nolint:errcheck
		ParseNormalized(s) //nolint:errcheck
	}
}

// TestNormalizedOnlyWhereRead: every statement kind gets its literals
// extracted, whichever of them a plan shape keeps.
func TestNormalizedOnlyWhereRead(t *testing.T) {
	for sql, params := range map[string]int{
		"INSERT INTO t VALUES (1, 'two', 3.5), (-4, 'five', 6)": 6,
		"DELETE FROM t WHERE a IN (1, 2) OR b IS NOT NULL":      2,
		"UPDATE t SET a = a + 1 WHERE b = 'x'":                  2,
		"CREATE TABLE t (a INTEGER PRIMARY KEY, b VARCHAR(20))": 0,
	} {
		r, err := ParseNormalized(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if len(r.Params) != params {
			t.Errorf("%s: %d params, want %d", sql, len(r.Params), params)
		}
	}
}
