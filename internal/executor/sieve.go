package executor

import (
	"repro/internal/expr"
	"repro/internal/sqltypes"
)

// Sieve is one execution's test of a leaf scan's rows, which the
// storage applies before it materializes them: a heap scan tests rows
// whose text still views the page frames and copies it out only for the
// rows that pass; other storages test whole rows. The tests are the
// leaf's pushed filter, then a hash join's filter over its build keys,
// either or both. A sieve lives in the execution, never in a compiled
// plan, which sessions share. Tuples count rows examined, not rows
// decoded: Sift counts every row it tests, as the leaf's filter or
// counting iterator did, and the probe counts each row the join filter
// dropped where it would have met it.
type Sieve struct {
	filter expr.Compiled
	join   *joinFilter
	env    expr.Env
	ctx    *Ctx
	vals   []sqltypes.Value // the filter's results
}

// newSieve returns a leaf's sieve for one execution: its pushed filter
// and the join filter jf. Nil when there is neither.
func newSieve(filter expr.Compiled, jf *joinFilter, ctx *Ctx) *Sieve {
	if filter == nil && jf == nil {
		return nil
	}
	return &Sieve{filter: filter, join: jf, env: expr.Env{Params: ctx.Params}, ctx: ctx}
}

// Sift compacts rows in place to those that pass, in order. A nil
// sieve passes every row.
func (s *Sieve) Sift(rows []sqltypes.Row) ([]sqltypes.Row, error) {
	if s == nil {
		return rows, nil
	}
	s.ctx.Tuples += int64(len(rows))
	if s.filter != nil {
		var err error
		if s.vals, err = expr.EvalBatch(s.filter, &s.env, rows, s.vals[:0]); err != nil {
			return nil, err
		}
		pass := rows[:0]
		for i, row := range rows {
			if s.vals[i].Bool() {
				pass = append(pass, row)
			}
		}
		rows = pass
	}
	if s.join != nil {
		rows = s.join.sift(rows)
	}
	return rows, nil
}

// joinFilter is a hash join's test of its probe leaf's rows
// (HashJoin.JoinFilter): a row passes when its key has no NULL and the
// build holds an equal key. It keeps, for each row it passes, the build
// entry found, where the probe starts without a second lookup, and the
// number of rows it dropped just before, which the probe counts.
type joinFilter struct {
	build   *hashBuild
	cols    []int            // the probe keys' positions in the leaf's row
	key     []sqltypes.Value // key scratch
	hits    []int32          // by row of the batch last passed: its key's build entry
	gaps    []int64          // by row of that batch: the rows dropped just before it
	pending int64            // rows dropped since the last one passed
	passed  bool             // hits and gaps describe a batch already passed on
}

// sift compacts rows in place to those whose key the build holds.
func (j *joinFilter) sift(rows []sqltypes.Row) []sqltypes.Row {
	if j.passed {
		j.hits, j.gaps, j.passed = j.hits[:0], j.gaps[:0], false
	}
	out := rows[:0]
	for _, row := range rows {
		if key, ok := keyOf(&j.key, row, j.cols); ok {
			if e := j.build.keys.find(key); e >= 0 {
				j.hits = append(j.hits, e)
				j.gaps = append(j.gaps, j.pending)
				j.pending = 0
				out = append(out, row)
				continue
			}
		}
		j.pending++
	}
	j.passed = len(out) > 0
	return out
}

// keyOf reads a key of bare columns from row — a one-column key is the
// row's own value, a wider one a copy in the scratch *dst — valid until
// either changes; ok=false if a value is NULL (equi joins never match it).
func keyOf(dst *[]sqltypes.Value, row sqltypes.Row, cols []int) ([]sqltypes.Value, bool) {
	if len(cols) == 1 {
		c := cols[0]
		return row[c : c+1 : c+1], !row[c].IsNull()
	}
	*dst = (*dst)[:0]
	for _, c := range cols {
		if row[c].IsNull() {
			return nil, false
		}
		*dst = append(*dst, row[c])
	}
	return *dst, true
}
