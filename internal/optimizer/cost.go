package optimizer

import "math"

// Cost model constants. Units follow the monitor: CPU in tuple
// operations, IO in page accesses. One page I/O weighs like 100 tuple
// operations (see Cost.Total).
const (
	// entriesPerLeaf approximates how many index entries fit on one
	// B-Tree leaf page.
	entriesPerLeaf = 120
	// defaultEqSelectivity is assumed for equality predicates on
	// columns without statistics.
	defaultEqSelectivity = 0.01
	// defaultRangeSelectivity is assumed for range predicates without
	// statistics.
	defaultRangeSelectivity = 0.10
	// defaultLikeSelectivity is assumed for LIKE predicates.
	defaultLikeSelectivity = 0.05
	// defaultJoinDistinctFraction estimates the distinct count of a
	// join column without statistics as rows * fraction.
	defaultJoinDistinctFraction = 0.1
)

// seqScanCost prices a full scan with a filter of the given
// selectivity.
func seqScanCost(stats TableStats, sel float64) Cost {
	rows := float64(stats.Rows)
	out := math.Max(1, rows*sel)
	return Cost{
		CPU:  rows,
		IO:   float64(stats.Pages),
		Rows: out,
	}
}

// indexScanCost prices an index probe returning matchRows base rows.
// It covers both secondary indexes and the primary B-Tree: descend the
// tree, walk the matching leaf range, fetch each base row.
func indexScanCost(stats TableStats, ix IndexStats, matchRows float64) Cost {
	if matchRows < 1 {
		matchRows = 1
	}
	height := float64(ix.Height)
	if height <= 0 {
		height = btreeHeightEstimate(stats.Rows)
	}
	leafPages := math.Ceil(matchRows / entriesPerLeaf)
	// Base-row fetches are random but cannot exceed the table size.
	fetch := math.Min(matchRows, float64(stats.Pages))
	return Cost{
		CPU:  matchRows * 3,
		IO:   height + leafPages + fetch,
		Rows: matchRows,
	}
}

// btreeHeightEstimate estimates tree height from entry count.
func btreeHeightEstimate(rows int64) float64 {
	if rows <= entriesPerLeaf {
		return 1
	}
	return 1 + math.Ceil(math.Log(float64(rows)/entriesPerLeaf)/math.Log(entriesPerLeaf))
}

// estimateIndexStats derives physical stats for a virtual index (or a
// real one the engine cannot size) from the base table.
func estimateIndexStats(stats TableStats) IndexStats {
	pages := uint32(math.Ceil(float64(stats.Rows) / entriesPerLeaf))
	if pages < 2 {
		pages = 2
	}
	return IndexStats{Pages: pages, Height: int(btreeHeightEstimate(stats.Rows))}
}

// hashJoinCost prices building on one input and probing with the
// other.
func hashJoinCost(probe, build Cost, outRows float64) Cost {
	own := Cost{
		CPU:  probe.Rows + build.Rows*1.5 + outRows,
		Rows: math.Max(1, outRows),
	}
	return own.Add(probe).Add(build)
}

// loopJoinCost prices a nested-loops join with the right side
// materialized in memory.
func loopJoinCost(left, right Cost, outRows float64) Cost {
	own := Cost{
		CPU:  left.Rows*math.Max(1, right.Rows) + outRows,
		Rows: math.Max(1, outRows),
	}
	return own.Add(left).Add(right)
}

// indexJoinCost prices probing an index of the inner table once per
// outer row, with perProbe matching rows each.
func indexJoinCost(left Cost, inner TableStats, ix IndexStats, perProbe, outRows float64) Cost {
	if perProbe < 0.1 {
		perProbe = 0.1
	}
	height := float64(ix.Height)
	if height <= 0 {
		height = btreeHeightEstimate(inner.Rows)
	}
	own := Cost{
		CPU:  left.Rows * (3 + perProbe*2),
		IO:   left.Rows * (1 + perProbe),
		Rows: math.Max(1, outRows),
	}
	return own.Add(left)
}

func sortCost(in Cost) Cost {
	n := math.Max(2, in.Rows)
	own := Cost{CPU: n * math.Log2(n), Rows: in.Rows}
	return own.Add(in)
}

func aggCost(in Cost, groups int) Cost {
	outRows := 1.0
	if groups > 0 {
		outRows = math.Max(1, in.Rows*0.1)
	}
	own := Cost{CPU: in.Rows, Rows: outRows}
	return own.Add(in)
}

func distinctCost(in Cost) Cost {
	own := Cost{CPU: in.Rows, Rows: math.Max(1, in.Rows*0.9)}
	return own.Add(in)
}

func limitCost(in Cost, n int64) Cost {
	rows := in.Rows
	if n >= 0 && float64(n) < rows {
		rows = float64(n)
	}
	return Cost{CPU: in.CPU, IO: in.IO, Rows: rows}
}

func projectCost(in Cost) Cost {
	own := Cost{CPU: in.Rows, Rows: in.Rows}
	return own.Add(in)
}
