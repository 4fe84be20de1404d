package ima

import (
	"encoding/binary"
	"sync"
	"time"

	"repro/internal/sqltypes"
)

// Cursor is one consumer's position in a persisted relation: the
// column mask plus the state its persist rule needs between polls (a
// watermark or the memory of landed keys). The storage daemon holds one
// per relation. Safe for concurrent use.
type Cursor struct {
	Rel  *Relation
	keep []int // persisted column positions
	cols []int // positions of Rel.Persist.Cols

	mu   sync.Mutex
	mark int64   // ChangedSince: unix µs of the last fully landed poll; After: highest landed value
	seen fifoSet // Once: keys that landed
	key  []byte  // Once: scratch for the key under test
}

// NewCursor starts a cursor that has persisted nothing yet. memory
// bounds how many landed keys a Once rule remembers.
func (r *Relation) NewCursor(memory int) *Cursor {
	c := &Cursor{Rel: r}
	if r.Persist.Rule == Once {
		c.seen = newFifoSet(memory)
	}
	for i, col := range r.Columns {
		if !col.Live {
			c.keep = append(c.keep, i)
		}
	}
	for _, name := range r.Persist.Cols {
		for i, col := range r.Columns {
			if col.Name == name {
				c.cols = append(c.cols, i)
			}
		}
	}
	if len(c.cols) != len(r.Persist.Cols) {
		panic("ima: relation " + r.Name + ": persist rule names an undeclared column")
	}
	return c
}

// Select reads the relation from src at now, applies the persist rule
// and returns the selected rows masked to the persisted columns, in
// order. The caller appends them and reports through ack how many (a
// prefix) landed; only then does the rule's state advance, and the
// relation's Landed hook run, so rows that failed to land are selected
// again next time.
func (c *Cursor) Select(src *Sources, now time.Time) (out []sqltypes.Row, ack func(landed int)) {
	rows := c.Rel.Rows(src)
	rule := c.Rel.Persist.Rule
	var seqs []int64                // After: sequence value per selected row
	var keys []string               // Once: key per selected row
	var inBatch map[string]struct{} // Once: keys selected in this call
	if rule == Once {
		inBatch = map[string]struct{}{}
	}

	c.mu.Lock()
	for _, row := range rows {
		switch rule {
		case ChangedSince:
			if row[c.cols[0]].I < c.mark {
				continue
			}
		case After:
			if row[c.cols[0]].I <= c.mark {
				continue
			}
			seqs = append(seqs, row[c.cols[0]].I)
		case Nonzero:
			if row[c.cols[0]].I == 0 {
				continue
			}
		case Once:
			// The map lookups on string(c.key) do not allocate; only a
			// key seen for the first time is copied, at its exact size.
			c.key = c.key[:0]
			for _, j := range c.cols {
				if v := row[j]; v.T == sqltypes.Int {
					c.key = binary.LittleEndian.AppendUint64(c.key, uint64(v.I))
				} else {
					c.key = append(append(c.key, v.String()...), 0)
				}
			}
			_, dup := inBatch[string(c.key)]
			if _, landed := c.seen.seen[string(c.key)]; dup || landed {
				continue
			}
			key := string(c.key)
			inBatch[key] = struct{}{}
			keys = append(keys, key)
		}
		out = append(out, c.mask(row))
	}
	c.mu.Unlock()

	return out, func(landed int) {
		c.mu.Lock()
		defer c.mu.Unlock()
		switch rule {
		case ChangedSince:
			if us := now.UnixMicro(); landed == len(out) && us > c.mark {
				c.mark = us
			}
		case After:
			if landed > 0 {
				c.mark = max(c.mark, seqs[landed-1])
			}
		case Once:
			for _, k := range keys[:landed] {
				c.seen.add(k)
			}
		}
		if c.Rel.Landed != nil {
			c.Rel.Landed(src, landed)
		}
	}
}

func (c *Cursor) mask(row sqltypes.Row) sqltypes.Row {
	out := make(sqltypes.Row, len(c.keep))
	for i, j := range c.keep {
		out[i] = row[j]
	}
	return out
}

// fifoSet is a bounded FIFO set of keys: it remembers the cap most
// recently added keys and forgets the oldest beyond that, so keys
// persisted recently keep deduplicating across polls.
type fifoSet struct {
	cap  int
	seen map[string]struct{}
	ring []string // insertion order, overwritten oldest-first once full
	next int      // ring slot the next eviction frees
}

func newFifoSet(cap int) fifoSet {
	cap = max(cap, 1)
	return fifoSet{cap: cap, seen: make(map[string]struct{}, min(cap, 1024))}
}

func (s *fifoSet) add(key string) {
	if _, ok := s.seen[key]; ok {
		return
	}
	s.seen[key] = struct{}{}
	if len(s.ring) < s.cap {
		s.ring = append(s.ring, key)
		return
	}
	delete(s.seen, s.ring[s.next])
	s.ring[s.next] = key
	s.next = (s.next + 1) % s.cap
}
