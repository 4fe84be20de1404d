package expr

import (
	"math"
	"strings"
	"testing"

	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// parseWhere extracts the WHERE expression from "SELECT * FROM t WHERE ...".
func parseWhere(t *testing.T, cond string) sqlparser.Expr {
	t.Helper()
	st, err := sqlparser.Parse("SELECT * FROM t WHERE " + cond)
	if err != nil {
		t.Fatalf("parse %q: %v", cond, err)
	}
	return st.(*sqlparser.SelectStmt).Where
}

func testResolver() *SimpleResolver {
	return &SimpleResolver{Cols: []ResolvedCol{
		{Table: "t", Name: "a", Type: sqltypes.Int},
		{Table: "t", Name: "b", Type: sqltypes.Float},
		{Table: "t", Name: "s", Type: sqltypes.Text},
		{Table: "u", Name: "a", Type: sqltypes.Int}, // ambiguous with t.a
	}}
}

func evalCond(t *testing.T, cond string, row sqltypes.Row) sqltypes.Value {
	t.Helper()
	c, err := Bind(parseWhere(t, cond), testResolver())
	if err != nil {
		t.Fatalf("bind %q: %v", cond, err)
	}
	v, err := c.Eval(&Env{Row: row})
	if err != nil {
		t.Fatalf("eval %q: %v", cond, err)
	}
	return v
}

func TestComparisonsAndLogic(t *testing.T) {
	row := sqltypes.Row{
		sqltypes.NewInt(5), sqltypes.NewFloat(2.5), sqltypes.NewText("hello"), sqltypes.NewInt(9),
	}
	cases := []struct {
		cond string
		want bool
	}{
		{"t.a = 5", true},
		{"t.a <> 5", false},
		{"t.a < 6 AND b > 2", true},
		{"t.a < 5 OR b > 2", true},
		{"NOT t.a = 5", false},
		{"t.a >= 5 AND t.a <= 5", true},
		{"b = 2.5", true},
		{"s = 'hello'", true},
		{"s LIKE 'he%'", true},
		{"s LIKE '%llo'", true},
		{"s LIKE 'h_llo'", true},
		{"s LIKE 'h_l%'", true},
		{"s LIKE 'x%'", false},
		{"s NOT LIKE 'x%'", true},
		{"t.a IN (1, 5, 9)", true},
		{"t.a NOT IN (1, 5, 9)", false},
		{"t.a IN (1, 2)", false},
		{"t.a BETWEEN 1 AND 9", true},
		{"t.a NOT BETWEEN 6 AND 9", true},
		{"t.a + 1 = 6", true},
		{"t.a * 2 - 3 = 7", true},
		{"t.a / 2 = 2", true}, // integer division
		{"t.a % 2 = 1", true},
		{"b * 2 = 5.0", true},
		{"-t.a = -5", true},
		{"u.a = 9", true},
	}
	for _, c := range cases {
		if got := evalCond(t, c.cond, row); got.Bool() != c.want {
			t.Errorf("%q = %v, want %v", c.cond, got, c.want)
		}
	}
}

func TestThreeValuedLogic(t *testing.T) {
	row := sqltypes.Row{
		sqltypes.NullValue(), sqltypes.NewFloat(1), sqltypes.NullValue(), sqltypes.NewInt(0),
	}
	// NULL comparisons yield NULL.
	if v := evalCond(t, "t.a = 5", row); !v.IsNull() {
		t.Errorf("NULL = 5 should be NULL, got %v", v)
	}
	// NULL AND false = false; NULL AND true = NULL.
	if v := evalCond(t, "t.a = 5 AND b = 2", row); v.IsNull() || v.Bool() {
		t.Errorf("NULL AND false = %v, want false", v)
	}
	if v := evalCond(t, "t.a = 5 AND b = 1", row); !v.IsNull() {
		t.Errorf("NULL AND true = %v, want NULL", v)
	}
	// NULL OR true = true; NULL OR false = NULL.
	if v := evalCond(t, "t.a = 5 OR b = 1", row); v.IsNull() || !v.Bool() {
		t.Errorf("NULL OR true = %v, want true", v)
	}
	if v := evalCond(t, "t.a = 5 OR b = 2", row); !v.IsNull() {
		t.Errorf("NULL OR false = %v, want NULL", v)
	}
	// IS NULL / IS NOT NULL.
	if v := evalCond(t, "t.a IS NULL", row); !v.Bool() {
		t.Error("IS NULL failed")
	}
	if v := evalCond(t, "b IS NOT NULL", row); !v.Bool() {
		t.Error("IS NOT NULL failed")
	}
	// NOT NULL = NULL.
	if v := evalCond(t, "NOT t.a = 5", row); !v.IsNull() {
		t.Errorf("NOT NULL = %v, want NULL", v)
	}
	// IN with NULL needle is NULL; IN list containing NULL with no match is NULL.
	if v := evalCond(t, "t.a IN (1, 2)", row); !v.IsNull() {
		t.Errorf("NULL IN (...) = %v, want NULL", v)
	}
	if v := evalCond(t, "u.a IN (1, s)", row); !v.IsNull() {
		t.Errorf("0 IN (1, NULL) = %v, want NULL", v)
	}
	// BETWEEN with NULL bound is NULL.
	if v := evalCond(t, "b BETWEEN t.a AND 10", row); !v.IsNull() {
		t.Errorf("BETWEEN NULL = %v, want NULL", v)
	}
}

func TestArithmeticErrors(t *testing.T) {
	row := sqltypes.Row{
		sqltypes.NewInt(1), sqltypes.NewFloat(0), sqltypes.NewText("x"), sqltypes.NewInt(0),
	}
	for _, cond := range []string{"t.a / u.a = 1", "t.a % u.a = 1", "t.a / b = 1"} {
		c, err := Bind(parseWhere(t, cond), testResolver())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Eval(&Env{Row: row}); err == nil {
			t.Errorf("%q: expected division error", cond)
		}
	}
	// Text arithmetic other than + is an error.
	c, _ := Bind(parseWhere(t, "s * 2 = 2"), testResolver())
	if _, err := c.Eval(&Env{Row: row}); err == nil {
		t.Error("text multiply accepted")
	}
}

// Float arithmetic whose result is NaN is an error; infinities alone
// are not.
func TestArithmeticNaNIsAnError(t *testing.T) {
	row := sqltypes.Row{
		sqltypes.NewInt(0), sqltypes.NewFloat(math.Inf(1)), sqltypes.NewText("x"), sqltypes.NewInt(0),
	}
	for _, cond := range []string{"b - b = 1", "t.a * b = 1", "b / b = 1", "b + -b = 1"} {
		c, err := Bind(parseWhere(t, cond), testResolver())
		if err != nil {
			t.Fatal(err)
		}
		if v, err := c.Eval(&Env{Row: row}); err == nil {
			t.Errorf("%q: evaluated to %v, want an error", cond, v)
		}
	}
	if v := evalCond(t, "b + b > 1e308", row); !v.Bool() {
		t.Errorf("Inf + Inf > 1e308 = %v", v)
	}
}

func TestStringConcat(t *testing.T) {
	row := sqltypes.Row{
		sqltypes.NewInt(1), sqltypes.NewFloat(0), sqltypes.NewText("ab"), sqltypes.NewInt(0),
	}
	v := evalCond(t, "s + 'cd' = 'abcd'", row)
	if !v.Bool() {
		t.Errorf("concat failed: %v", v)
	}
}

func TestParams(t *testing.T) {
	res, err := sqlparser.ParseNormalized("SELECT * FROM t WHERE t.a = 42 AND s = 'x'")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Bind(res.Stmt.(*sqlparser.SelectStmt).Where, testResolver())
	if err != nil {
		t.Fatal(err)
	}
	row := sqltypes.Row{
		sqltypes.NewInt(42), sqltypes.NewFloat(0), sqltypes.NewText("x"), sqltypes.NewInt(0),
	}
	v, err := c.Eval(&Env{Row: row, Params: res.Params})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Bool() {
		t.Error("parameterized predicate failed")
	}
	// Rebinding different params flips the result without recompiling.
	v2, _ := c.Eval(&Env{Row: row, Params: []sqltypes.Value{
		sqltypes.NewInt(1), sqltypes.NewText("x"),
	}})
	if v2.Bool() {
		t.Error("stale parameter value used")
	}
	// Missing params error out.
	if _, err := c.Eval(&Env{Row: row}); err == nil {
		t.Error("missing params accepted")
	}
}

func TestBindErrors(t *testing.T) {
	r := testResolver()
	// Unknown column.
	if _, err := Bind(parseWhere(t, "zz = 1"), r); err == nil {
		t.Error("unknown column bound")
	}
	// Ambiguous column (a exists in t and u).
	if _, err := Bind(parseWhere(t, "a = 1"), r); err == nil ||
		!strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("ambiguous column: %v", err)
	}
	// Aggregates are not allowed in scalar binding.
	if _, err := Bind(parseWhere(t, "COUNT(*) > 1"), r); err == nil {
		t.Error("aggregate bound in scalar context")
	}
	// Unknown qualifier.
	if _, err := Bind(parseWhere(t, "x.a = 1"), r); err == nil {
		t.Error("unknown qualifier bound")
	}
}

func TestLikePatterns(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"", "", true},
		{"", "%", true},
		{"a", "", false},
		{"abc", "abc", true},
		{"abc", "a%", true},
		{"abc", "%c", true},
		{"abc", "%b%", true},
		{"abc", "___", true},
		{"abc", "__", false},
		{"abc", "a_c", true},
		{"abc", "%%%", true},
		{"NF00123", "NF%", true},
		{"xNF", "NF%", false},
		{"aXbXc", "a%b%c", true},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}
