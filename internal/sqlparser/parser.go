package sqlparser

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sqltypes"
)

// ParseResult carries a parsed statement together with its extracted
// parameters. Two statements that differ only in extracted literal
// values parse to the same Stmt.
type ParseResult struct {
	Stmt   Statement
	Params []sqltypes.Value
	// Bindings reports, per literal token in text order, whether it was
	// extracted as a parameter. Only Scanner.Parse fills it in.
	Bindings []Binding
}

// Parse parses a single SQL statement with literals left inline.
func Parse(sql string) (Statement, error) {
	res, err := parse(sql, false)
	if err != nil {
		return nil, err
	}
	return res.Stmt, nil
}

// ParseNormalized parses a single SQL statement, extracting every
// literal into Params and replacing it with a Param node.
func ParseNormalized(sql string) (*ParseResult, error) {
	return parse(sql, true)
}

func parse(sql string, extract bool) (*ParseResult, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	return parseTokens(sql, toks, extract, false)
}

// parseTokens parses a lexed statement. bindings asks for the
// per-literal extraction report.
func parseTokens(sql string, toks []token, extract, bindings bool) (*ParseResult, error) {
	p := &parser{src: sql, toks: toks, extract: extract, track: bindings}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	// Allow a trailing semicolon.
	if p.peek().kind == tokSymbol && p.peek().text == ";" {
		p.next()
	}
	if p.peek().kind != tokEOF {
		return nil, p.errorf("unexpected trailing input %q", p.peek().text)
	}
	res := &ParseResult{Stmt: stmt, Params: p.params}
	if bindings {
		res.Bindings = p.bindings()
	}
	return res, nil
}

type parser struct {
	src     string
	toks    []token
	pos     int
	extract bool
	track   bool // record which tokens were extracted, for the bindings
	params  []sqltypes.Value
	// extracted[i] marks token i as replaced by a parameter; negated[k]
	// marks parameter k as sign-folded. Both are allocated on first use:
	// parameters are extracted in token order, so these two are all it
	// takes to report the bindings.
	extracted []bool
	negated   []bool
}

// isExtracted reports whether token i was replaced by a parameter.
func (p *parser) isExtracted(i int) bool { return i < len(p.extracted) && p.extracted[i] }

// bindings lists the fate of every literal token in text order.
func (p *parser) bindings() []Binding {
	var out []Binding
	next := int32(0)
	for i, t := range p.toks {
		switch t.kind {
		case tokInt, tokFloat, tokString:
			b := Binding{Param: -1}
			if p.isExtracted(i) {
				b.Param = next
				b.Neg = int(next) < len(p.negated) && p.negated[next]
				next++
			}
			out = append(out, b)
		}
	}
	return out
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) peek2() token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return token{kind: tokEOF}
}
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("sql: %s (near byte %d)", fmt.Sprintf(format, args...), p.peek().pos)
}

func (p *parser) expectKeyword(kw string) error {
	t := p.peek()
	if t.kind != tokKeyword || t.text != kw {
		return p.errorf("expected %s, found %q", kw, t.text)
	}
	p.next()
	return nil
}

func (p *parser) acceptKeyword(kw string) bool {
	t := p.peek()
	if t.kind == tokKeyword && t.text == kw {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectSymbol(sym string) error {
	t := p.peek()
	if t.kind != tokSymbol || t.text != sym {
		return p.errorf("expected %q, found %q", sym, t.text)
	}
	p.next()
	return nil
}

func (p *parser) acceptSymbol(sym string) bool {
	t := p.peek()
	if t.kind == tokSymbol && t.text == sym {
		p.next()
		return true
	}
	return false
}

// identLike accepts an identifier, or a keyword used in an identifier
// position (column names like "key" or "text" appear in the schemas).
func (p *parser) identLike() (string, error) {
	t := p.peek()
	if t.kind == tokIdent {
		p.next()
		return t.text, nil
	}
	if t.kind == tokKeyword {
		p.next()
		return strings.ToLower(t.text), nil
	}
	return "", p.errorf("expected identifier, found %q", t.text)
}

func (p *parser) parseStatement() (Statement, error) {
	t := p.peek()
	if t.kind != tokKeyword {
		return nil, p.errorf("expected a statement, found %q", t.text)
	}
	switch t.text {
	case "SELECT":
		return p.parseSelect()
	case "CREATE":
		return p.parseCreate()
	case "DROP":
		return p.parseDrop()
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "MODIFY":
		return p.parseModify()
	case "SET":
		// SET <name> [=] <int> — session configuration (SET PARALLEL 4).
		// The value is a plain integer constant, like LIMIT/OFFSET: it is
		// never extracted into the parameter vector.
		p.next()
		name, err := p.identLike()
		if err != nil {
			return nil, err
		}
		p.acceptSymbol("=")
		v, err := p.parseIntConst()
		if err != nil {
			return nil, err
		}
		return &SetStmt{Name: strings.ToLower(name), Value: v}, nil
	case "EXPLAIN":
		p.next()
		var whatIf, analyze bool
		for { // WHATIF and ANALYZE modifiers, in either order
			if !whatIf && p.acceptKeyword("WHATIF") {
				whatIf = true
				continue
			}
			if !analyze && p.acceptKeyword("ANALYZE") {
				analyze = true
				continue
			}
			break
		}
		if p.peek().kind != tokKeyword || p.peek().text != "SELECT" {
			return nil, p.errorf("EXPLAIN supports SELECT only")
		}
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{WhatIf: whatIf, Analyze: analyze, Select: sel}, nil
	default:
		return nil, p.errorf("unsupported statement %q", t.text)
	}
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	p.next() // SELECT
	st := &SelectStmt{Limit: -1}
	st.Distinct = p.acceptKeyword("DISTINCT")

	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		st.Items = append(st.Items, item)
		if !p.acceptSymbol(",") {
			break
		}
	}

	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	for {
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		st.From = append(st.From, ref)
		// Explicit joins attach to the FROM list.
		for {
			inner := false
			if p.acceptKeyword("INNER") {
				inner = true
			}
			if !p.acceptKeyword("JOIN") {
				if inner {
					return nil, p.errorf("expected JOIN after INNER")
				}
				break
			}
			jref, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("ON"); err != nil {
				return nil, err
			}
			cond, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.Joins = append(st.Joins, JoinClause{Table: jref, Cond: cond})
		}
		if !p.acceptSymbol(",") {
			break
		}
	}

	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.GroupBy = append(st.GroupBy, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Having = e
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			var e Expr
			// A bare integer is a positional reference, which shapes
			// the plan: keep it a literal, never a parameter.
			if p.peek().kind == tokInt && isOrderTerminator(p.peek2()) {
				n, err := p.parseIntConst()
				if err != nil {
					return nil, err
				}
				e = Literal{Val: sqltypes.NewInt(n)}
			} else {
				var err error
				if e, err = p.parseExpr(); err != nil {
					return nil, err
				}
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			st.OrderBy = append(st.OrderBy, item)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		n, err := p.parseIntConst()
		if err != nil {
			return nil, err
		}
		st.Limit = n
		if p.acceptKeyword("OFFSET") {
			o, err := p.parseIntConst()
			if err != nil {
				return nil, err
			}
			st.Offset = o
		}
	}
	return st, nil
}

// parseIntConst parses a plain integer (LIMIT/OFFSET), never extracted
// as a parameter since it shapes the plan.
func (p *parser) parseIntConst() (int64, error) {
	t := p.peek()
	if t.kind != tokInt {
		return 0, p.errorf("expected integer, found %q", t.text)
	}
	p.next()
	return strconv.ParseInt(t.text, 10, 64)
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.peek().kind == tokSymbol && p.peek().text == "*" {
		p.next()
		return SelectItem{Star: true}, nil
	}
	// t.* form
	if p.peek().kind == tokIdent && p.peek2().kind == tokSymbol && p.peek2().text == "." {
		if p.pos+2 < len(p.toks) && p.toks[p.pos+2].kind == tokSymbol && p.toks[p.pos+2].text == "*" {
			tbl := p.next().text
			p.next() // .
			p.next() // *
			return SelectItem{Star: true, Table: tbl}, nil
		}
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		alias, err := p.identLike()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	} else if p.peek().kind == tokIdent {
		item.Alias = p.next().text
	}
	return item, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	name, err := p.identLike()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Name: name}
	if p.acceptKeyword("AS") {
		alias, err := p.identLike()
		if err != nil {
			return TableRef{}, err
		}
		ref.Alias = alias
	} else if p.peek().kind == tokIdent {
		ref.Alias = p.next().text
	}
	return ref, nil
}

// Expression grammar, loosest to tightest:
//
//	or     := and (OR and)*
//	and    := not (AND not)*
//	not    := NOT not | cmp
//	cmp    := add ((=|<>|<|<=|>|>=|LIKE) add | IS [NOT] NULL |
//	               [NOT] IN (list) | [NOT] BETWEEN add AND add)?
//	add    := mul ((+|-) mul)*
//	mul    := unary ((*|/|%) unary)*
//	unary  := - unary | primary
//	primary:= literal | funcall | columnref | ( or )
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = BinaryExpr{Op: "OR", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = BinaryExpr{Op: "AND", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return UnaryExpr{Op: "NOT", Operand: e}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	left, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind == tokSymbol {
		switch t.text {
		case "=", "<>", "<", "<=", ">", ">=":
			p.next()
			right, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return BinaryExpr{Op: t.text, Left: left, Right: right}, nil
		}
	}
	if t.kind == tokKeyword {
		not := false
		if t.text == "NOT" {
			nt := p.peek2()
			if nt.kind == tokKeyword && (nt.text == "IN" || nt.text == "BETWEEN" || nt.text == "LIKE") {
				p.next()
				not = true
				t = p.peek()
			}
		}
		switch t.text {
		case "LIKE":
			p.next()
			right, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			var e Expr = BinaryExpr{Op: "LIKE", Left: left, Right: right}
			if not {
				e = UnaryExpr{Op: "NOT", Operand: e}
			}
			return e, nil
		case "IS":
			p.next()
			isNot := p.acceptKeyword("NOT")
			if err := p.expectKeyword("NULL"); err != nil {
				return nil, err
			}
			return IsNullExpr{Not: isNot, Expr: left}, nil
		case "IN":
			p.next()
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			var list []Expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				list = append(list, e)
				if !p.acceptSymbol(",") {
					break
				}
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return InExpr{Not: not, Expr: left, List: list}, nil
		case "BETWEEN":
			p.next()
			lo, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("AND"); err != nil {
				return nil, err
			}
			hi, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return BetweenExpr{Not: not, Expr: left, Lo: lo, Hi: hi}, nil
		}
	}
	return left, nil
}

func (p *parser) parseAdd() (Expr, error) {
	left, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokSymbol || (t.text != "+" && t.text != "-") {
			return left, nil
		}
		p.next()
		right, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		left = BinaryExpr{Op: t.text, Left: left, Right: right}
	}
}

func (p *parser) parseMul() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokSymbol || (t.text != "*" && t.text != "/" && t.text != "%") {
			return left, nil
		}
		p.next()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = BinaryExpr{Op: t.text, Left: left, Right: right}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.peek().kind == tokSymbol && p.peek().text == "-" {
		p.next()
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold negation of literals so "-5" is one literal. (In
		// extracting mode primaries come back as Param, handled below.)
		if lit, ok := e.(Literal); ok {
			switch lit.Val.T {
			case sqltypes.Int:
				return Literal{Val: sqltypes.NewInt(-lit.Val.I)}, nil
			case sqltypes.Float:
				return Literal{Val: sqltypes.NewFloat(-lit.Val.F)}, nil
			}
		}
		if prm, ok := e.(Param); ok && p.extract {
			// The literal was already extracted; negate the stored value.
			v := p.params[prm.Idx]
			switch v.T {
			case sqltypes.Int:
				p.params[prm.Idx] = sqltypes.NewInt(-v.I)
			case sqltypes.Float:
				p.params[prm.Idx] = sqltypes.NewFloat(-v.F)
			default:
				return prm, nil
			}
			if p.track {
				if p.negated == nil {
					p.negated = make([]bool, len(p.toks))
				}
				p.negated[prm.Idx] = !p.negated[prm.Idx]
			}
			return prm, nil
		}
		return UnaryExpr{Op: "-", Operand: e}, nil
	}
	return p.parsePrimary()
}

// literal wraps a constant, extracting it as a parameter when the
// parser runs in normalizing mode. tokIdx is the index of the literal
// token, recorded so the bindings report exactly this token.
func (p *parser) literal(v sqltypes.Value, tokIdx int) Expr {
	if !p.extract {
		return Literal{Val: v}
	}
	if p.track {
		if p.extracted == nil {
			p.extracted = make([]bool, len(p.toks))
		}
		p.extracted[tokIdx] = true
	}
	p.params = append(p.params, v)
	return Param{Idx: len(p.params) - 1}
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokInt, tokFloat, tokString:
		idx := p.pos
		p.next()
		v, ok := litValue(LitInt+LitKind(t.kind-tokInt), t.text)
		if !ok {
			if t.kind == tokInt {
				return nil, p.errorf("bad integer %q", t.text)
			}
			return nil, p.errorf("bad float %q", t.text)
		}
		return p.literal(v, idx), nil
	case tokSymbol:
		if t.text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	case tokKeyword:
		switch t.text {
		case "NULL":
			p.next()
			return Literal{Val: sqltypes.NullValue()}, nil
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
			return p.parseFuncCall()
		}
		// Keyword in column position ("key", "text", ...).
		if p.peek2().kind == tokSymbol && p.peek2().text == "." {
			return p.parseColumnRef()
		}
		name, err := p.identLike()
		if err != nil {
			return nil, err
		}
		return ColumnRef{Name: name}, nil
	case tokIdent:
		// Function call on an identifier? Only aggregates are supported,
		// so a bare ident followed by "(" is an error caught later.
		return p.parseColumnRef()
	}
	return nil, p.errorf("unexpected token %q in expression", t.text)
}

func (p *parser) parseColumnRef() (Expr, error) {
	first, err := p.identLike()
	if err != nil {
		return nil, err
	}
	if p.peek().kind == tokSymbol && p.peek().text == "." {
		p.next()
		second, err := p.identLike()
		if err != nil {
			return nil, err
		}
		return ColumnRef{Table: first, Name: second}, nil
	}
	return ColumnRef{Name: first}, nil
}

func (p *parser) parseFuncCall() (Expr, error) {
	name := p.next().text // aggregate keyword
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	fc := FuncCall{Name: name}
	if p.acceptSymbol("*") {
		fc.Star = true
	} else {
		fc.Distinct = p.acceptKeyword("DISTINCT")
		arg, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		fc.Args = append(fc.Args, arg)
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return fc, nil
}

func (p *parser) parseCreate() (Statement, error) {
	p.next() // CREATE
	switch {
	case p.acceptKeyword("TABLE"):
		return p.parseCreateTable()
	case p.acceptKeyword("UNIQUE"):
		if err := p.expectKeyword("INDEX"); err != nil {
			return nil, err
		}
		return p.parseCreateIndex(true, false)
	case p.acceptKeyword("VIRTUAL"):
		if err := p.expectKeyword("INDEX"); err != nil {
			return nil, err
		}
		return p.parseCreateIndex(false, true)
	case p.acceptKeyword("INDEX"):
		return p.parseCreateIndex(false, false)
	case p.acceptKeyword("STATISTICS"):
		return p.parseCreateStatistics()
	default:
		return nil, p.errorf("expected TABLE, INDEX, VIRTUAL INDEX or STATISTICS after CREATE")
	}
}

func (p *parser) parseCreateTable() (Statement, error) {
	st := &CreateTableStmt{}
	if p.acceptKeyword("IF") {
		if err := p.expectKeyword("NOT"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		st.IfNotExists = true
	}
	name, err := p.identLike()
	if err != nil {
		return nil, err
	}
	st.Name = name
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	for {
		// Table-level PRIMARY KEY (...).
		if p.peek().kind == tokKeyword && p.peek().text == "PRIMARY" {
			p.next()
			if err := p.expectKeyword("KEY"); err != nil {
				return nil, err
			}
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			for {
				col, err := p.identLike()
				if err != nil {
					return nil, err
				}
				st.PrimaryKey = append(st.PrimaryKey, col)
				if !p.acceptSymbol(",") {
					break
				}
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
		} else {
			col, err := p.parseColumnDef()
			if err != nil {
				return nil, err
			}
			st.Columns = append(st.Columns, col)
		}
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *parser) parseColumnDef() (ColumnDef, error) {
	name, err := p.identLike()
	if err != nil {
		return ColumnDef{}, err
	}
	t := p.peek()
	if t.kind != tokKeyword {
		return ColumnDef{}, p.errorf("expected a type for column %s, found %q", name, t.text)
	}
	var typ sqltypes.Type
	switch t.text {
	case "INT", "INTEGER", "BIGINT":
		typ = sqltypes.Int
	case "FLOAT", "REAL", "DOUBLE":
		typ = sqltypes.Float
	case "VARCHAR", "CHAR", "TEXT":
		typ = sqltypes.Text
	default:
		return ColumnDef{}, p.errorf("unknown type %q for column %s", t.text, name)
	}
	p.next()
	// Optional length: VARCHAR(200). Parsed and ignored.
	if p.acceptSymbol("(") {
		if _, err := p.parseIntConst(); err != nil {
			return ColumnDef{}, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return ColumnDef{}, err
		}
	}
	def := ColumnDef{Name: name, Type: typ}
	if p.acceptKeyword("PRIMARY") {
		if err := p.expectKeyword("KEY"); err != nil {
			return ColumnDef{}, err
		}
		def.PrimaryKey = true
	}
	return def, nil
}

func (p *parser) parseCreateIndex(unique, virtual bool) (Statement, error) {
	st := &CreateIndexStmt{Unique: unique, Virtual: virtual}
	name, err := p.identLike()
	if err != nil {
		return nil, err
	}
	st.Name = name
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	tbl, err := p.identLike()
	if err != nil {
		return nil, err
	}
	st.Table = tbl
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	for {
		col, err := p.identLike()
		if err != nil {
			return nil, err
		}
		st.Columns = append(st.Columns, col)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *parser) parseCreateStatistics() (Statement, error) {
	if err := p.expectKeyword("FOR"); err != nil {
		return nil, err
	}
	tbl, err := p.identLike()
	if err != nil {
		return nil, err
	}
	st := &CreateStatisticsStmt{Table: tbl}
	if p.acceptSymbol("(") {
		for {
			col, err := p.identLike()
			if err != nil {
				return nil, err
			}
			st.Columns = append(st.Columns, col)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (p *parser) parseDrop() (Statement, error) {
	p.next() // DROP
	switch {
	case p.acceptKeyword("TABLE"):
		st := &DropTableStmt{}
		if p.acceptKeyword("IF") {
			if err := p.expectKeyword("EXISTS"); err != nil {
				return nil, err
			}
			st.IfExists = true
		}
		name, err := p.identLike()
		if err != nil {
			return nil, err
		}
		st.Name = name
		return st, nil
	case p.acceptKeyword("INDEX"):
		st := &DropIndexStmt{}
		if p.acceptKeyword("IF") {
			if err := p.expectKeyword("EXISTS"); err != nil {
				return nil, err
			}
			st.IfExists = true
		}
		name, err := p.identLike()
		if err != nil {
			return nil, err
		}
		st.Name = name
		return st, nil
	default:
		return nil, p.errorf("expected TABLE or INDEX after DROP")
	}
}

func (p *parser) parseInsert() (Statement, error) {
	p.next() // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	tbl, err := p.identLike()
	if err != nil {
		return nil, err
	}
	st := &InsertStmt{Table: tbl}
	if p.acceptSymbol("(") {
		for {
			col, err := p.identLike()
			if err != nil {
				return nil, err
			}
			st.Columns = append(st.Columns, col)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, row)
		if !p.acceptSymbol(",") {
			break
		}
	}
	return st, nil
}

func (p *parser) parseUpdate() (Statement, error) {
	p.next() // UPDATE
	tbl, err := p.identLike()
	if err != nil {
		return nil, err
	}
	st := &UpdateStmt{Table: tbl}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.identLike()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Set = append(st.Set, SetClause{Column: col, Expr: e})
		if !p.acceptSymbol(",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	return st, nil
}

func (p *parser) parseDelete() (Statement, error) {
	p.next() // DELETE
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	tbl, err := p.identLike()
	if err != nil {
		return nil, err
	}
	st := &DeleteStmt{Table: tbl}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	return st, nil
}

func (p *parser) parseModify() (Statement, error) {
	p.next() // MODIFY
	tbl, err := p.identLike()
	if err != nil {
		return nil, err
	}
	st := &ModifyStmt{Table: tbl}
	if err := p.expectKeyword("TO"); err != nil {
		return nil, err
	}
	switch {
	case p.acceptKeyword("BTREE"):
		st.Structure = "BTREE"
		if p.acceptKeyword("ON") {
			for {
				col, err := p.identLike()
				if err != nil {
					return nil, err
				}
				st.KeyCols = append(st.KeyCols, col)
				if !p.acceptSymbol(",") {
					break
				}
			}
		}
	case p.acceptKeyword("HEAP"):
		st.Structure = "HEAP"
	default:
		return nil, p.errorf("expected BTREE or HEAP after TO")
	}
	return st, nil
}

// isOrderTerminator reports whether a token can follow a positional
// ORDER BY reference.
func isOrderTerminator(t token) bool {
	switch t.kind {
	case tokEOF:
		return true
	case tokSymbol:
		return t.text == "," || t.text == ";"
	case tokKeyword:
		return t.text == "DESC" || t.text == "ASC" || t.text == "LIMIT" || t.text == "OFFSET"
	}
	return false
}
