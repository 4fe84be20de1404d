package sqlparser

import (
	"strconv"
	"strings"

	"repro/internal/sqltypes"
)

// The statement fast path's front end. One lex pass over the statement
// text yields, besides the tokens, its shape key — the token stream with
// every literal masked — and the literal vector. Statements of the same
// shape differ only in literal values, so a cache keyed by shape can
// hand back everything the parser and the optimizer derived from the
// first one; the later ones skip AST construction entirely and only
// bind their literals.
//
// Which literals become parameters is not decided here. The parser
// alone defines that (LIMIT/OFFSET counts, positional ORDER BY
// references and type lengths stay in the text because they shape the
// plan): a miss parses the already-lexed tokens, and the ParseResult
// reports the fate of each literal as a Binding. A shape whose
// statements differ in a literal the parser left in the text are
// different statements, and the cache holder keeps them apart by
// comparing those literals' text.

// LitKind is the lexical class of a literal.
type LitKind uint8

// Literal kinds. The kind is part of the shape key: an integer, a float
// and a string at the same position can parse differently.
const (
	LitInt LitKind = iota + 1
	LitFloat
	LitString
)

// Lit is one literal token of the statement, in text order. Text is
// the token's text (a string's body, unquoted and unescaped) and aliases
// the statement text.
type Lit struct {
	Kind LitKind
	Text string
}

// Binding is what the parser did with one literal token: extracted it
// as parameter Param — negated when a unary minus folded into it — or,
// with Param < 0, left it in the statement text.
type Binding struct {
	Param int32
	Neg   bool
}

// MaxShapeKey bounds the shape key. A longer statement (a bulk INSERT
// with hundreds of rows) has no key and is simply parsed: caching its
// shape would pin a large AST for a statement that rarely repeats.
const MaxShapeKey = 4096

// Scanner lexes statements into reusable buffers. The zero value is
// ready; a Scanner is not safe for concurrent use (sessions own one
// each). Everything it returns is valid until the next Scan.
type Scanner struct {
	src  string
	toks []token
	key  []byte
	lits []Lit
	long bool // the key outgrew MaxShapeKey and was dropped
}

// Scan lexes sql, replacing the previous statement's state. Its only
// error is a *LexError.
func (sc *Scanner) Scan(sql string) error {
	sc.src, sc.key, sc.lits, sc.long = sql, sc.key[:0], sc.lits[:0], false
	l := lexer{src: sql, toks: sc.toks[:0], sc: sc}
	err := l.run()
	sc.toks = l.toks
	return err
}

// add appends one token's contribution to the shape key: keywords in
// their canonical spelling, identifiers and symbols as written, a
// literal as its kind byte alone (no token text contains a byte that
// low, so masks cannot collide with text).
func (sc *Scanner) add(kind tokenKind, text string) {
	if sc.long {
		return
	}
	switch kind {
	case tokInt, tokFloat, tokString:
		lk := LitInt + LitKind(kind-tokInt)
		sc.lits = append(sc.lits, Lit{Kind: lk, Text: text})
		sc.key = append(sc.key, byte(lk), ' ')
	default:
		sc.key = append(append(sc.key, text...), ' ')
	}
	if len(sc.key) > MaxShapeKey {
		sc.long = true
	}
}

// Key returns the shape key of the last scanned statement, or nil when
// the statement is too long to have one.
func (sc *Scanner) Key() []byte {
	if sc.long {
		return nil
	}
	return sc.key
}

// Text returns the statement text of the last Scan.
func (sc *Scanner) Text() string { return sc.src }

// Literals returns the literal vector of the last scanned statement
// (incomplete when Key is nil).
func (sc *Scanner) Literals() []Lit { return sc.lits }

// Parse parses the tokens of the last Scan exactly as ParseNormalized
// parses the statement text — no second lex pass — and additionally
// reports, when the statement has a shape key, one Binding per literal.
func (sc *Scanner) Parse() (*ParseResult, error) {
	return parseTokens(sc.src, sc.toks, true, !sc.long)
}

// Fixed returns copies of the texts of the literals bs — the bindings
// Parse reported for the last scanned statement — left in the statement.
func (sc *Scanner) Fixed(bs []Binding) []string {
	var fixed []string
	for i, b := range bs {
		if b.Param < 0 {
			fixed = append(fixed, strings.Clone(sc.lits[i].Text))
		}
	}
	return fixed
}

// Digest is the identity of a statement for everything that counts
// statements rather than executes them: FNV-64a over the shape key and,
// each behind a zero byte, the texts of the literals the parser left in
// the statement (LIMIT and OFFSET counts, positional ORDER BY references,
// type lengths). Two statements
// share a digest exactly when one prepared-cache entry serves both.
// With a statement's text as key it is the plain hash of that text, the
// identity of a statement that has no shape key.
func Digest[K string | []byte](key K, fixed []string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * prime64
	}
	for _, f := range fixed {
		h *= prime64 // h ^ 0
		for i := 0; i < len(f); i++ {
			h = (h ^ uint64(f[i])) * prime64
		}
	}
	return h
}

// DigestOf returns the digest the statement path assigns to sql: that
// of its shape key and unextracted literals; of the shape key alone when
// the statement does not parse; of the lexer's error kind when it does
// not lex; of the text when it is too long to have a key.
func DigestOf(sql string) uint64 {
	var sc Scanner
	if err := sc.Scan(sql); err != nil {
		return err.(*LexError).Digest()
	}
	if sc.Key() == nil {
		return Digest(sql, nil)
	}
	parsed, err := sc.Parse()
	if err != nil {
		return Digest(sc.Key(), nil)
	}
	return Digest(sc.Key(), sc.Fixed(parsed.Bindings))
}

// litValue is the value of a literal token: the one conversion the
// parser and Bind share.
func litValue(kind LitKind, text string) (sqltypes.Value, bool) {
	switch kind {
	case LitInt:
		i, err := strconv.ParseInt(text, 10, 64)
		return sqltypes.NewInt(i), err == nil
	case LitFloat:
		f, err := strconv.ParseFloat(text, 64)
		return sqltypes.NewFloat(f), err == nil
	}
	return sqltypes.NewText(text), true
}

// Bind appends to dst the parameter vector the parser would extract
// from lits given the bindings of their shape: parameters are numbered
// in text order, so this is one pass. ok is false when a literal has no
// value (an integer out of range) — the statement must then take the
// parser's road to its error. len(bs) must equal len(lits).
func Bind(dst []sqltypes.Value, lits []Lit, bs []Binding) (_ []sqltypes.Value, ok bool) {
	for i, b := range bs {
		if b.Param < 0 {
			continue
		}
		v, ok := litValue(lits[i].Kind, lits[i].Text)
		if !ok {
			return dst, false
		}
		if b.Neg {
			switch v.T {
			case sqltypes.Int:
				v.I = -v.I
			case sqltypes.Float:
				v.F = -v.F
			}
		}
		dst = append(dst, v)
	}
	return dst, true
}
