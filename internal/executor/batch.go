package executor

import (
	"repro/internal/sqltypes"
)

// The operator contract. Every operator, from the storage leaves to the
// result, is a RowBatchIter: rows move in batches of about BatchSize,
// which amortizes the per-row costs (page pins, record allocations,
// iterator calls) over a whole batch.
//
// Ownership: the rows delivered in a Batch are valid only until the
// next NextBatch or Close call on the same iterator. Producers reuse
// their backing — the heap scan its decode arena, Project and the joins
// their output values — and Filter, Distinct, Limit and Strip pass their
// input's rows through, compacted or resliced in place. A consumer that
// keeps rows beyond one batch copies them through a RowArena: Sort, the
// build side of the joins, and Collect, the drain into the result.

// BatchSize is the target number of rows per batch: large enough to
// amortize per-batch costs over many pages, small enough to stay
// cache-resident. Leaves that find fewer rows deliver fewer — an index
// probe's batch is as long as its matches — and operator scratch is
// sized from the batch that arrives.
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
// ok=false means the input is exhausted and b is empty. Close releases
// what the iterator holds and closes its inputs; it must be called on
// every path, including after an error or before exhaustion.
// Implementations are not safe for concurrent use.
type RowBatchIter interface {
	NextBatch(b *Batch) (bool, error)
	Close() error
}

// SliceRowIter iterates a materialized row slice. The engine uses it
// for virtual tables; materializing operators (sort, agg) use it for
// their outputs. The rows are stable, so the batches alias them.
type SliceRowIter struct {
	Rows  []sqltypes.Row
	Sieve *Sieve // tests the rows of each batch; nil: none
	pos   int
}

// NextBatch implements RowBatchIter.
func (it *SliceRowIter) NextBatch(b *Batch) (bool, error) {
	b.Reset()
	for it.pos < len(it.Rows) {
		end := min(it.pos+BatchSize, len(it.Rows))
		b.Rows = append(b.Rows[:0], it.Rows[it.pos:end]...)
		it.pos = end
		var err error
		if b.Rows, err = it.Sieve.Sift(b.Rows); err != nil || len(b.Rows) > 0 {
			return err == nil, err
		}
	}
	return false, nil
}

// Close implements RowBatchIter.
func (it *SliceRowIter) Close() error { return nil }

// cursor reads an input one row at a time, for the joins, which pair
// each outer row with inner rows. The row it returns stays valid until
// the call of next after the last row of its batch. It is a private
// convenience over the one contract, not a second one.
type cursor struct {
	in   RowBatchIter
	b    Batch
	pos  int
	done bool // latched: an exhausted input is not called again
}

func (c *cursor) next() (sqltypes.Row, bool, error) {
	for c.pos >= len(c.b.Rows) {
		if c.done {
			return nil, false, nil
		}
		ok, err := c.in.NextBatch(&c.b)
		if err != nil {
			return nil, false, err
		}
		c.pos, c.done = 0, !ok
	}
	row := c.b.Rows[c.pos]
	c.pos++
	return row, true, nil
}

// RowArena carves row copies out of shared chunks, so materializing
// rows costs one allocation per chunk instead of one per row. The first
// chunk is exactly the first request (a point lookup materializes one
// short row and pays for nothing more); chunks then double, so scans
// settle on maxArenaChunk-value chunks. Carved rows are never
// overwritten unless the owner calls Reset — full-capacity slicing keeps
// later appends from aliasing them. A producer that resets before every
// batch carves each batch out of the chunks the earlier ones made, so
// after its widest batch it allocates nothing more.
type RowArena struct {
	buf    []sqltypes.Value   // the chunk rows are carved from
	chunks [][]sqltypes.Value // every chunk, in the order they were made
	next   int                // chunks[next:] are free until the next Reset
}

const maxArenaChunk = 8192

// grow ensures the current chunk has room for need more values, moving
// to the next free chunk that has it, or a fresh one.
func (a *RowArena) grow(need int) {
	if cap(a.buf)-len(a.buf) >= need {
		return
	}
	for ; a.next < len(a.chunks); a.next++ {
		if c := a.chunks[a.next]; cap(c) >= need {
			a.buf = c[:0]
			a.next++
			return
		}
	}
	a.buf = make([]sqltypes.Value, 0, max(need, min(2*cap(a.buf), maxArenaChunk)))
	a.chunks = append(a.chunks, a.buf)
	a.next = len(a.chunks)
}

// Reset hands every chunk out again: rows carved since the last Reset
// are overwritten by the next ones. This is the batch contract seen
// from a producer, which resets before filling each batch.
func (a *RowArena) Reset() {
	if len(a.chunks) > 0 {
		a.buf, a.next = a.chunks[0][:0], 1
	}
}

// Clone copies row into the arena and returns the copy.
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

// drain feeds every batch of it to fn, in order, and closes it. The
// rows are valid only inside fn.
func drain(it RowBatchIter, fn func(rows []sqltypes.Row) error) error {
	defer it.Close()
	var b Batch
	for {
		ok, err := it.NextBatch(&b)
		if err != nil || !ok {
			return err
		}
		if err := fn(b.Rows); err != nil {
			return err
		}
	}
}

// Collect drains an iterator into a slice of stable rows and closes it.
func Collect(it RowBatchIter) ([]sqltypes.Row, error) {
	var out []sqltypes.Row
	var arena RowArena
	err := drain(it, func(rows []sqltypes.Row) error {
		for _, row := range rows {
			out = append(out, arena.Clone(row))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
