package executor

import (
	"repro/internal/sqltypes"
)

// Vectorized execution: alongside the row-at-a-time RowIter pipeline,
// operators can move rows in batches of ~BatchSize. The batch path and
// the row path are semantically identical — same rows, same Ctx.Tuples
// counts, same per-operator trace counts — the batch path just
// amortizes per-row interpretation overhead (page pins, record
// allocations, iterator virtual calls) across a whole batch.
//
// Ownership contract: the rows delivered in a Batch are valid only
// until the next NextBatch or Close call on the same iterator.
// Producers reuse the batch backing; consumers that retain rows beyond
// one batch (sort, hash-join build, result collection) must copy them,
// e.g. through a RowArena. Row-at-a-time iterators, by contrast,
// always yield stable rows, which is what lets RowsToBatch alias them.

// BatchSize is the target number of rows per batch: large enough to
// amortize per-batch costs over many pages, small enough to stay
// cache-resident.
const BatchSize = 1024

// Batch is a reusable container of rows. The caller owns the struct;
// producers fill Rows reusing its capacity.
type Batch struct {
	Rows []sqltypes.Row
}

// Reset empties the batch, keeping capacity.
func (b *Batch) Reset() { b.Rows = b.Rows[:0] }

// RowBatchIter produces rows a batch at a time. NextBatch fills b
// (reusing its capacity) and reports whether the batch holds any rows;
// ok=false means the input is exhausted and b is empty. Implementations
// are not safe for concurrent use.
type RowBatchIter interface {
	NextBatch(b *Batch) (bool, error)
	Close() error
}

// batchCompiled is implemented by compiled operators that can open a
// batch-at-a-time iterator. Operators without it run row-at-a-time and
// are bridged with RowsToBatch (the shim that keeps row-only operators
// — index join, loop join probe, distinct, limit — correct without a
// rewrite).
type batchCompiled interface {
	openBatch(rt *runtime) (RowBatchIter, error)
}

// openBatchOf opens c in batch mode, bridging row-only operators.
func openBatchOf(c compiled, rt *runtime) (RowBatchIter, error) {
	if bc, ok := c.(batchCompiled); ok {
		return bc.openBatch(rt)
	}
	it, err := c.open(rt)
	if err != nil {
		return nil, err
	}
	return RowsToBatch(it), nil
}

// RunBatch opens the plan in batch mode against storage. Operators
// that support vectorized execution run batch-at-a-time; the rest run
// row-at-a-time behind shims. Results, Ctx.Tuples and trace counts are
// identical to Run. The returned iterator must be closed.
func (p *Prepared) RunBatch(st Storage, ctx *Ctx) (RowBatchIter, error) {
	rt := &runtime{st: st, ctx: ctx}
	return openBatchOf(p.root, rt)
}

// RowsToBatch adapts a row iterator to the batch interface by pulling
// up to BatchSize rows per batch. Row iterators yield stable rows, so
// the batch may alias them.
func RowsToBatch(it RowIter) RowBatchIter { return &rowsToBatchIter{in: it} }

type rowsToBatchIter struct {
	in   RowIter
	done bool
}

func (a *rowsToBatchIter) NextBatch(b *Batch) (bool, error) {
	b.Reset()
	if a.done {
		return false, nil
	}
	for len(b.Rows) < BatchSize {
		row, ok, err := a.in.Next()
		if err != nil {
			return false, err
		}
		if !ok {
			// Latch exhaustion: the caller's final drain call must not
			// hit the exhausted row subtree again (it would inflate
			// every span's call count below this point).
			a.done = true
			break
		}
		b.Rows = append(b.Rows, row)
	}
	return len(b.Rows) > 0, nil
}

func (a *rowsToBatchIter) Close() error { return a.in.Close() }

// BatchToRows adapts a batch iterator to the row interface. Rows are
// served out of the adapter's internal batch, so each row stays valid
// until the adapter refills — i.e. across at most one batch of Next
// calls, which satisfies every row-at-a-time consumer that does not
// retain rows (retaining consumers copy, as they must under the batch
// contract anyway).
func BatchToRows(bi RowBatchIter) RowIter { return &batchToRowsIter{in: bi} }

type batchToRowsIter struct {
	in   RowBatchIter
	b    Batch
	pos  int
	done bool
}

func (a *batchToRowsIter) Next() (sqltypes.Row, bool, error) {
	for {
		if a.pos < len(a.b.Rows) {
			r := a.b.Rows[a.pos]
			a.pos++
			return r, true, nil
		}
		if a.done {
			return nil, false, nil
		}
		ok, err := a.in.NextBatch(&a.b)
		if err != nil {
			return nil, false, err
		}
		a.pos = 0
		if !ok {
			a.done = true
			return nil, false, nil
		}
	}
}

func (a *batchToRowsIter) Close() error { return a.in.Close() }

// RowArena carves stable row copies out of shared chunks, so
// materializing rows costs one allocation per chunk instead of one per
// row. The first chunk is exactly the first request (a point lookup
// materializes one short row and pays for nothing more); chunks then
// double, so scans settle on maxArenaChunk-value chunks. Carved rows are never overwritten — full-capacity slicing
// keeps later appends from aliasing them — and abandoned chunks are
// garbage-collected as soon as their carved rows are dropped, so a
// consumer that discards rows never accumulates the whole scan.
// Exported for the engine's row iterators, which share the same
// stability contract.
type RowArena struct {
	buf []sqltypes.Value
}

const maxArenaChunk = 8192

// grow ensures the current chunk has room for need more values,
// starting a fresh chunk otherwise.
func (a *RowArena) grow(need int) {
	if cap(a.buf)-len(a.buf) >= need {
		return
	}
	a.buf = make([]sqltypes.Value, 0, max(need, min(2*cap(a.buf), maxArenaChunk)))
}

// Alloc carves an uninitialized stable row of n values the caller
// fills in place.
func (a *RowArena) Alloc(n int) sqltypes.Row {
	a.grow(n)
	start := len(a.buf)
	a.buf = a.buf[:start+n]
	return sqltypes.Row(a.buf[start : start+n : start+n])
}

// Clone copies row into the arena and returns the stable copy.
func (a *RowArena) Clone(row sqltypes.Row) sqltypes.Row {
	return a.Combine(row, nil)
}

// Combine copies the concatenation of left and right into the arena.
func (a *RowArena) Combine(left, right sqltypes.Row) sqltypes.Row {
	a.grow(len(left) + len(right))
	start := len(a.buf)
	a.buf = append(a.buf, left...)
	a.buf = append(a.buf, right...)
	return sqltypes.Row(a.buf[start:len(a.buf):len(a.buf)])
}

// CollectBatches drains a batch iterator into a slice of stable rows
// and closes it. The batch-path counterpart of Collect.
func CollectBatches(bi RowBatchIter) ([]sqltypes.Row, error) {
	defer bi.Close()
	var out []sqltypes.Row
	var arena RowArena
	var b Batch
	for {
		ok, err := bi.NextBatch(&b)
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		for _, row := range b.Rows {
			out = append(out, arena.Clone(row))
		}
	}
}
