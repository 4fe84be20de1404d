package executor

// Morsel-driven intra-query parallelism (Leis et al., SIGMOD 2013
// adapted to this engine's batch pipeline): a parallel-safe
// Agg(SeqScan) subtree partitions the table's heap pages into
// fixed-size morsels handed out by a shared atomic dispenser. Each
// worker drives its own copy of the serial machinery — page-range
// batch scan, MVCC visibility against the statement snapshot captured
// once, vectorized filter, partial aggregation in a private arena —
// over the morsels it claims. A single merge step then combines the
// partial aggregation states and hands the unchanged upstream
// operators one materialized result, exactly as the serial path would.
//
// Safety rests on three properties of the existing code: compiled
// expressions are immutable and evaluate through per-worker Envs, the
// statement snapshot is read-only and lock-free, and each page-range
// scan pins and latches independently, so workers share no mutable
// state except the dispenser and the stop flag.

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sqltypes"
)

// MorselPages is the number of heap pages one morsel covers. Small
// enough that a table worth parallelizing yields many times more
// morsels than workers (the dispenser balances skew), large enough
// that claiming one amortizes the atomic increment.
const MorselPages = 64

// maxMorselWorkers bounds the fan-out regardless of the session knob.
const maxMorselWorkers = 64

// MorselSource enumerates one table's heap pages and opens independent
// page-range scans over them.
type MorselSource interface {
	// Pages returns the table's page count at open time; morsels
	// partition [0, Pages). Pages appended afterwards belong to versions
	// the statement snapshot cannot see anyway.
	Pages() uint32
	// ScanRange opens a batch scan confined to heap pages [lo, hi),
	// reading the columns cols as Storage.ScanTable does. Every
	// returned iterator is independent — driven and closed by exactly
	// one worker goroutine — and applies the same snapshot visibility
	// as a full-table scan.
	ScanRange(lo, hi uint32, cols []int, sv *Sieve) (RowBatchIter, error)
}

// MorselStorage is optionally implemented by Storage backends that can
// partition a base-table scan into page-range morsels. ok=false (with
// nil error) means the table cannot be morsel-scanned — virtual
// tables, for instance — and the caller falls back to the serial path.
type MorselStorage interface {
	MorselTable(name string) (MorselSource, bool, error)
}

// openParallel runs the scan→filter→partial-agg pipeline across
// morsel workers and merges the partial states. handled=false means
// the plan shape, storage backend, session knob or table size keeps
// the query on the serial path (which the caller then takes); with
// handled=true the result or error is final.
func (c *aggC) openParallel(rt runtime) (_ RowBatchIter, handled bool, _ error) {
	if c.scan == nil || rt.ctx.Parallel <= 1 {
		return nil, false, nil
	}
	ms, ok := rt.st.(MorselStorage)
	if !ok {
		return nil, false, nil
	}
	src, ok, err := ms.MorselTable(c.scan.table)
	if err != nil {
		return nil, true, err
	}
	if !ok || src == nil {
		return nil, false, nil
	}
	pages := src.Pages()
	nMorsels := int((uint64(pages) + MorselPages - 1) / MorselPages)
	if nMorsels < 2 {
		// A single morsel cannot fan out; the serial path skips the
		// goroutine round-trip, which keeps small scans regression-free.
		return nil, false, nil
	}
	workers := rt.ctx.Parallel
	if workers > nMorsels {
		workers = nMorsels
	}
	if workers > maxMorselWorkers {
		workers = maxMorselWorkers
	}

	var (
		next     atomic.Uint32 // the morsel dispenser
		stop     atomic.Bool   // first failure cancels every worker
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		stop.Store(true)
	}
	// partial is one worker's contribution, written only by that worker
	// until wg.Wait establishes the happens-before edge to the merger.
	type partial struct {
		run      *aggRun
		tuples   int64 // raw scanned rows (filter-input accounting)
		filtered int64 // rows that reached the aggregate
		nanos    int64 // worker wall time
	}
	parts := make([]partial, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(p *partial) {
			defer wg.Done()
			// Workers share no mutable state: each gets its own tuple
			// counter, expression Env, scan iterators and agg arena.
			wctx := &Ctx{Params: rt.ctx.Params}
			run := c.newRun(wctx.Params)
			sv := newSieve(c.scan.filter, nil, wctx)
			p.run = run
			t0 := time.Now()
			defer func() {
				p.nanos = time.Since(t0).Nanoseconds()
				p.tuples = wctx.Tuples
			}()
			var b Batch
			for !stop.Load() {
				m := next.Add(1) - 1
				if m >= uint32(nMorsels) {
					return
				}
				lo := m * MorselPages
				hi := lo + MorselPages
				if hi > pages {
					hi = pages
				}
				it, err := src.ScanRange(lo, hi, c.scan.cols, sv)
				if err != nil {
					fail(err)
					return
				}
				in := leaf(it, sv, wctx)
				run.ordBase = uint64(m) << 32
				run.ordCount = 0
				err = func() error {
					// The deferred Close releases the morsel's page pins
					// and heap latch on every exit path, including
					// cancellation between batches.
					defer in.Close()
					for !stop.Load() {
						ok, err := in.NextBatch(&b)
						if err != nil {
							return err
						}
						if !ok {
							return nil
						}
						p.filtered += int64(len(b.Rows))
						for _, row := range b.Rows {
							if err := run.addRow(row); err != nil {
								return err
							}
						}
					}
					return nil
				}()
				if err != nil {
					fail(err)
					return
				}
			}
		}(&parts[w])
	}
	wg.Wait()
	if firstErr != nil {
		return nil, true, firstErr
	}

	var totalFiltered, sumNanos, maxNanos int64
	runs := make([]*aggRun, 0, len(parts))
	for i := range parts {
		p := &parts[i]
		// Tuple accounting matches the serial path exactly: every raw
		// scanned row (filter input) plus every row the aggregate saw.
		rt.ctx.Tuples += p.tuples + p.filtered
		totalFiltered += p.filtered
		sumNanos += p.nanos
		if p.nanos > maxNanos {
			maxNanos = p.nanos
		}
		runs = append(runs, p.run)
	}
	merged := c.merge(rt.ctx.Params, runs)
	rt.ctx.Morsels += int64(nMorsels)
	rt.ctx.WorkerNanos += sumNanos
	rt.ctx.ParallelRuns++
	if tr := rt.ctx.Trace; tr != nil {
		// The per-worker span counters aggregate into one per-operator
		// actual for the scan: rows and calls exactly what the serial
		// spanIter would record (N rows, N+1 calls), wall clamped to the
		// slowest worker rather than summed across workers.
		sc := &tr.Counts[c.scanSpanID]
		sc.Rows += totalFiltered
		sc.Calls += totalFiltered + 1
		sc.Nanos += maxNanos
	}
	rows, err := merged.rows()
	if err != nil {
		return nil, true, err
	}
	return &SliceRowIter{Rows: rows}, true, nil
}

// merge folds the workers' partial runs into one. Their groups are
// taken in first-seen order and looked up by value in the merged run,
// so the merged run numbers its groups — its output order — exactly as
// a single front-to-back scan would have.
func (c *aggC) merge(params []sqltypes.Value, runs []*aggRun) *aggRun {
	type group struct {
		run *aggRun
		g   int32
	}
	var all []group
	merged := c.newRun(params)
	for _, r := range runs {
		merged.sawRow = merged.sawRow || r.sawRow
		for g := range r.states {
			all = append(all, group{r, int32(g)})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		return all[i].run.states[all[i].g].firstOrd < all[j].run.states[all[j].g].firstOrd
	})
	for _, x := range all {
		st := x.run.states[x.g]
		if g, fresh := merged.groups.insert(x.run.groups.key(x.g)); fresh {
			merged.states = append(merged.states, st)
		} else {
			c.mergeState(merged.states[g], st)
		}
	}
	return merged
}

// mergeState combines two partial aggregation states for the same
// group: counts and sums add, intOnly ands, MIN/MAX compare. DISTINCT
// seen-sets cannot be merged without double counting, which is why the
// optimizer never marks a DISTINCT aggregate parallel-safe.
func (c *aggC) mergeState(dst, src *aggState) {
	for i, a := range c.aggs {
		dst.count[i] += src.count[i]
		dst.sum[i] += src.sum[i]
		dst.sumI[i] += src.sumI[i]
		dst.intOnly[i] = dst.intOnly[i] && src.intOnly[i]
		if src.hasMM[i] {
			if !dst.hasMM[i] ||
				(a.fn == "MIN" && sqltypes.Compare(src.minMax[i], dst.minMax[i]) < 0) ||
				(a.fn == "MAX" && sqltypes.Compare(src.minMax[i], dst.minMax[i]) > 0) {
				dst.minMax[i] = src.minMax[i]
				dst.hasMM[i] = true
			}
		}
	}
}
