package sqlparser

import (
	"math/rand"
	"strings"
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

// TestNormalizedOnlyWhereRead: the normalized text names a plan shape,
// so only SELECT and EXPLAIN carry one; every other statement still gets
// its literals extracted.
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
		if r.Normalized != "" || len(r.Params) != params {
			t.Errorf("%s: normalized %q, %d params; want none and %d", sql, r.Normalized, len(r.Params), params)
		}
	}
}

// TestNormalizedRoundTripStable checks that normalizing the normalized
// text is a fixed point for a corpus of valid statements.
func TestNormalizedRoundTripStable(t *testing.T) {
	corpus := []string{
		"SELECT a FROM t WHERE a = 5",
		"SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 2 ORDER BY 2 DESC LIMIT 7",
		"SELECT x.a, y.b FROM x JOIN y ON x.k = y.k WHERE y.n BETWEEN 1 AND 9",
		"EXPLAIN SELECT a FROM t WHERE a IN (1, 2) OR b IS NOT NULL",
	}
	for _, sql := range corpus {
		r1, err := ParseNormalized(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		// Re-normalizing should produce an equivalent cache key: parse
		// the normalized text with '?' placeholders removed is not
		// possible, so instead check stability through a literal
		// round-trip: substituting the params back yields the same key.
		sub := r1.Normalized
		for _, p := range r1.Params {
			sub = strings.Replace(sub, "?", p.SQLLiteral(), 1)
		}
		r2, err := ParseNormalized(sub)
		if err != nil {
			t.Fatalf("re-parse %q: %v", sub, err)
		}
		if r2.Normalized != r1.Normalized {
			t.Errorf("normalization not stable:\n%q\n%q", r1.Normalized, r2.Normalized)
		}
		if len(r2.Params) != len(r1.Params) {
			t.Errorf("param count changed: %d vs %d", len(r2.Params), len(r1.Params))
		}
	}
}
