// Package sqlparser implements the SQL dialect of the engine: a lexer,
// a recursive-descent parser producing an AST, a normalizer that
// extracts literals as parameters, and the one-pass scanner (scanner.go)
// whose shape key lets structurally identical statements share a
// prepared-statement entry.
package sqlparser

import (
	"fmt"
	"strings"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokInt
	tokFloat
	tokString
	tokSymbol // operators and punctuation
)

type token struct {
	kind tokenKind
	text string // keyword/ident/symbol text (keywords upper-cased)
	pos  int
}

// keywordList enumerates the keywords recognized by the lexer.
// Identifiers matching these (case insensitive) become keyword tokens.
var keywordList = []string{
	"SELECT", "DISTINCT", "FROM", "WHERE",
	"GROUP", "BY", "HAVING", "ORDER",
	"ASC", "DESC", "LIMIT", "OFFSET",
	"JOIN", "INNER", "LEFT", "ON", "AS",
	"AND", "OR", "NOT", "IN", "BETWEEN",
	"LIKE", "IS", "NULL",
	"CREATE", "TABLE", "DROP", "INDEX",
	"VIRTUAL", "UNIQUE", "PRIMARY", "KEY",
	"INSERT", "INTO", "VALUES",
	"UPDATE", "SET", "DELETE",
	"MODIFY", "TO", "HEAP", "BTREE",
	"STATISTICS", "FOR", "EXPLAIN", "WHATIF", "ANALYZE",
	"INTEGER", "INT", "BIGINT",
	"FLOAT", "REAL", "DOUBLE",
	"VARCHAR", "CHAR", "TEXT",
	"COUNT", "SUM", "AVG", "MIN", "MAX",
	"IF", "EXISTS",
}

// keywords maps the upper-cased spelling to an interned canonical
// string, so keyword tokens never allocate.
var keywords = func() map[string]string {
	m := make(map[string]string, len(keywordList))
	for _, k := range keywordList {
		m[k] = k
	}
	return m
}()

// maxKeywordLen bounds the upper-casing scratch buffer.
const maxKeywordLen = 10 // "STATISTICS"

// keywordLens[c-'A'] has bit n set when some keyword of length n starts
// with letter c: most identifiers are turned away by it without being
// upper-cased or hashed.
var keywordLens = func() (m [26]uint16) {
	for _, k := range keywordList {
		m[k[0]-'A'] |= 1 << len(k)
	}
	return m
}()

// LexError is the lexer's rejection of a statement text. Statements
// that do not lex have no shape; they are counted per Kind, so a flood
// of distinct garbage texts is a handful of statements, not one each.
type LexError struct {
	Kind string // the failure class: one of the lex* constants
	msg  string
}

// The kinds of LexError.
const (
	lexMalformedNumber    = "malformed number"
	lexUnterminatedString = "unterminated string"
	lexUnexpectedChar     = "unexpected character"
)

func (e *LexError) Error() string { return e.msg }

// Digest is the identity of every statement the lexer rejects for this
// kind. The key starts with a zero byte, which no shape key contains.
func (e *LexError) Digest() uint64 { return Digest("\x00lex: "+e.Kind, nil) }

func lexErrorf(kind, format string, args ...any) error {
	return &LexError{Kind: kind, msg: fmt.Sprintf(format, args...)}
}

type lexer struct {
	src  string
	pos  int
	toks []token
	// sc, when set, receives the statement's shape key and literal
	// vector as the tokens are produced (see Scanner).
	sc *Scanner
}

// emit appends one token and, when a Scanner is attached, its
// contribution to the shape key.
func (l *lexer) emit(kind tokenKind, text string, pos int) {
	l.toks = append(l.toks, token{kind: kind, text: text, pos: pos})
	if l.sc != nil {
		l.sc.add(kind, text)
	}
}

// lex tokenizes src into a fresh token slice. It returns a descriptive
// error with byte position on bad input.
func lex(src string) ([]token, error) {
	l := lexer{src: src, toks: make([]token, 0, len(src)/4+4)}
	err := l.run()
	return l.toks, err
}

func (l *lexer) run() error {
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.toks = append(l.toks, token{kind: tokEOF, pos: l.pos})
			return nil
		}
		start := l.pos
		c := l.src[l.pos]
		switch {
		case isIdentStart(c):
			l.pos++
			for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
				l.pos++
			}
			word := l.src[start:l.pos]
			if kw, ok := lookupKeyword(word); ok {
				l.emit(tokKeyword, kw, start)
			} else {
				l.emit(tokIdent, word, start)
			}
		case c >= '0' && c <= '9':
			kind := tokInt
			l.pos++
			for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
				l.pos++
			}
			if l.pos < len(l.src) && l.src[l.pos] == '.' {
				kind = tokFloat
				l.pos++
				for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
					l.pos++
				}
			}
			if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
				kind = tokFloat
				l.pos++
				if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
					l.pos++
				}
				if l.pos >= len(l.src) || !isDigit(l.src[l.pos]) {
					return lexErrorf(lexMalformedNumber, "sql: malformed number at byte %d", start)
				}
				for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
					l.pos++
				}
			}
			l.emit(kind, l.src[start:l.pos], start)
		case c == '\'':
			l.pos++
			bodyStart := l.pos
			escaped := false
			for {
				if l.pos >= len(l.src) {
					return lexErrorf(lexUnterminatedString, "sql: unterminated string starting at byte %d", start)
				}
				if l.src[l.pos] == '\'' {
					if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
						escaped = true
						l.pos += 2
						continue
					}
					break
				}
				l.pos++
			}
			text := l.src[bodyStart:l.pos] // no copy in the common case
			l.pos++
			if escaped {
				text = strings.ReplaceAll(text, "''", "'")
			}
			l.emit(tokString, text, start)
		case strings.IndexByte("(),*.+-/%=;", c) >= 0:
			l.pos++
			l.emit(tokSymbol, l.src[start:l.pos], start)
		case c == '<':
			l.pos++
			if l.pos < len(l.src) && (l.src[l.pos] == '=' || l.src[l.pos] == '>') {
				l.pos++
			}
			l.emit(tokSymbol, l.src[start:l.pos], start)
		case c == '>':
			l.pos++
			if l.pos < len(l.src) && l.src[l.pos] == '=' {
				l.pos++
			}
			l.emit(tokSymbol, l.src[start:l.pos], start)
		case c == '!':
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
				l.pos += 2
				l.emit(tokSymbol, "<>", start)
				break
			}
			return lexErrorf(lexUnexpectedChar, "sql: unexpected '!' at byte %d", start)
		default:
			return lexErrorf(lexUnexpectedChar, "sql: unexpected character %q at byte %d", c, start)
		}
	}
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		// -- line comments
		if c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		return
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) }
func isDigit(c byte) bool     { return c >= '0' && c <= '9' }

// lookupKeyword reports whether word is a keyword, returning the
// interned upper-case spelling. It upper-cases into a stack buffer so
// the lookup never allocates.
func lookupKeyword(word string) (string, bool) {
	if len(word) > maxKeywordLen {
		return "", false
	}
	first := word[0] &^ 0x20 // upper-cases a letter; '_' (0x5F) stays out of range
	if first < 'A' || first > 'Z' || keywordLens[first-'A']&(1<<len(word)) == 0 {
		return "", false
	}
	var buf [maxKeywordLen]byte
	for i := 0; i < len(word); i++ {
		c := word[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	kw, ok := keywords[string(buf[:len(word)])]
	return kw, ok
}
