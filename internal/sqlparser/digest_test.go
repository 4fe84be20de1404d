package sqlparser

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// digestParts is what a digest is made of: the shape key and the
// literals the parser left in the statement. ok is false when the
// statement has no digest of that kind (it does not lex, parse or fit).
func digestParts(sql string) (key string, fixed []string, ok bool) {
	var sc Scanner
	if sc.Scan(sql) != nil || sc.Key() == nil {
		return "", nil, false
	}
	parsed, err := sc.Parse()
	if err != nil {
		return "", nil, false
	}
	return string(sc.Key()), sc.Fixed(parsed.Bindings), true
}

// stmtSpec is a random statement over a fixed template: what may vary
// without changing the digest (values of extracted literals, keyword
// case, whitespace) and what must change it.
type stmtSpec struct {
	Col, Table     uint8  // identifiers
	Value          uint32 // extracted: WHERE col = Value (unsigned: a minus sign is a token of the shape)
	Text           uint8  // extracted: AND name <> 'Text'
	StringKey      bool   // the first literal is a string instead of an int
	Limit, Offset  uint8  // left in the statement
	OrderPos       uint8  // left in the statement
	Lower, Spacing bool   // keyword case, whitespace
}

func (s stmtSpec) sql() string {
	kw := func(w string) string {
		if s.Lower {
			return strings.ToLower(w)
		}
		return w
	}
	sp := " "
	if s.Spacing {
		sp = "\n\t  "
	}
	val := fmt.Sprint(s.Value)
	if s.StringKey {
		val = fmt.Sprintf("'%d'", s.Value)
	}
	return strings.Join([]string{
		kw("SELECT"), "id,", fmt.Sprintf("c%d", s.Col%3), kw("FROM"), fmt.Sprintf("t%d", s.Table%3),
		kw("WHERE"), fmt.Sprintf("c%d", s.Col%3), "=", val, kw("AND"), "name", "<>", fmt.Sprintf("'n%d'", s.Text),
		kw("ORDER BY"), fmt.Sprint(1 + s.OrderPos%2), kw("LIMIT"), fmt.Sprint(s.Limit), kw("OFFSET"), fmt.Sprint(s.Offset),
	}, sp)
}

// identity is what the digest must be a function of.
func (s stmtSpec) identity() [6]any {
	return [6]any{s.Col % 3, s.Table % 3, s.StringKey, s.Limit, s.Offset, s.OrderPos % 2}
}

// Two statements share a digest exactly when they share the shape key
// and the unextracted literals: values of extracted literals, keyword
// case and whitespace do not matter; LIMIT, OFFSET, a positional ORDER
// BY, a literal's kind and every identifier do.
func TestDigestProperty(t *testing.T) {
	f := func(a, b stmtSpec) bool {
		da, db := DigestOf(a.sql()), DigestOf(b.sql())
		ka, fa, oka := digestParts(a.sql())
		kb, fb, okb := digestParts(b.sql())
		if !oka || !okb {
			t.Logf("template does not parse: %q / %q", a.sql(), b.sql())
			return false
		}
		sameParts := ka == kb && slices.Equal(fa, fb)
		if sameParts != (a.identity() == b.identity()) {
			t.Logf("parts and identity disagree for\n%q\n%q", a.sql(), b.sql())
			return false
		}
		if (da == db) != sameParts {
			t.Logf("digest %x / %x for\n%q\n%q", da, db, a.sql(), b.sql())
			return false
		}
		// Same spec, other values and layout: the same digest.
		c := a
		c.Value, c.Text, c.Lower, c.Spacing = b.Value, b.Text, !a.Lower, !a.Spacing
		return DigestOf(c.sql()) == da
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(15))}); err != nil {
		t.Error(err)
	}
}

// What DigestOf falls back to: the key alone when the statement does
// not parse, the lexer's error kind when it does not lex, the text when
// it is too long for a key.
func TestDigestFallbacks(t *testing.T) {
	if a, b := DigestOf("SELEC a FROM t WHERE a = 1"), DigestOf("SELEC a FROM t WHERE a = 2"); a != b {
		t.Error("a statement that does not parse is not keyed by its shape")
	}
	if a, b := DigestOf("SELECT 'open"), DigestOf("UPDATE t SET a = 'x"); a != b || a == Digest("SELECT 'open", nil) {
		t.Error("a statement that does not lex is not keyed by its error kind")
	}
	kinds := map[uint64]bool{}
	for _, sql := range []string{"SELECT 'open", "SELECT 1e+", "SELECT a ! b", "SELECT #"} {
		kinds[DigestOf(sql)] = true
	}
	if len(kinds) != 3 { // '!' and '#' are both unexpected characters
		t.Errorf("%d digests for three lexer error kinds", len(kinds))
	}
	long := "INSERT INTO t VALUES " + strings.Repeat("(1, 'x'), ", MaxShapeKey/8) + "(1, 'x')"
	if DigestOf(long) != Digest(long, nil) || DigestOf(long) == DigestOf(strings.Replace(long, "1", "2", 1)) {
		t.Error("a statement too long for a shape key is not keyed by its text")
	}
	if Digest("ab", []string{"c"}) == Digest("a", []string{"bc"}) || Digest("a", []string{"b", "c"}) == Digest("a", []string{"bc"}) {
		t.Error("the digest runs key and literals together")
	}
}

// FuzzDigest holds the digest to its definition on arbitrary text: it
// is a function of the shape key and the unextracted literals, so it
// survives rewriting every extracted literal; a text that does not lex
// digests equal to every other text failing with the same kind; and
// DigestOf never panics whatever it is given.
// lexFailures is one text per lexer error kind.
var lexFailures = map[string]string{
	lexMalformedNumber:    "SELECT 1e+",
	lexUnterminatedString: "SELEC 'x",
	lexUnexpectedChar:     "SELECT a # b",
}

func FuzzDigest(f *testing.F) {
	for _, p := range bindCorpus {
		f.Add(p[0])
		f.Add(p[1])
	}
	f.Add("SELECT a FROM t ORDER BY 1 LIMIT 5 OFFSET 2")
	f.Add("CREATE TABLE t (a VARCHAR(10), b INTEGER)")
	for _, sql := range lexFailures {
		f.Add(sql)
	}
	f.Add("x ! y")
	f.Fuzz(func(t *testing.T, sql string) {
		d := DigestOf(sql)
		if d != DigestOf(sql) {
			t.Fatal("digest is not a function of the text")
		}
		var sc Scanner
		if err := sc.Scan(sql); err != nil {
			kind := err.(*LexError).Kind
			if d != DigestOf(lexFailures[kind]) {
				t.Fatalf("%q fails with %q but is not keyed by it", sql, kind)
			}
			return
		}
		if sc.Key() == nil {
			return
		}
		parsed, err := sc.Parse()
		if err != nil {
			if d != Digest(sc.Key(), nil) {
				t.Fatalf("unparsable %q is not keyed by its shape", sql)
			}
			return
		}
		if d != Digest(sc.Key(), sc.Fixed(parsed.Bindings)) {
			t.Fatalf("%q: digest is not that of its key and fixed literals", sql)
		}
		// Rewrite the statement from its tokens with every extracted
		// literal replaced by another value of its kind: same digest.
		var b strings.Builder
		lit := 0
		for _, tok := range sc.toks {
			switch tok.kind {
			case tokEOF:
				continue
			case tokInt, tokFloat, tokString:
				text := tok.text
				if parsed.Bindings[lit].Param >= 0 {
					text = map[tokenKind]string{tokInt: "7", tokFloat: "7.5", tokString: "seven"}[tok.kind]
				}
				lit++
				if tok.kind == tokString {
					text = "'" + strings.ReplaceAll(text, "'", "''") + "'"
				}
				b.WriteString(text)
			default:
				b.WriteString(tok.text)
			}
			b.WriteByte(' ')
		}
		if got := DigestOf(b.String()); got != d {
			t.Fatalf("digest changed with the extracted literals:\n%q -> %x\n%q -> %x", sql, d, b.String(), got)
		}
	})
}
