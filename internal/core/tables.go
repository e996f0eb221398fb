package core

import (
	"sort"

	"perturb/internal/trace"
)

// This file holds the incremental engine's bookkeeping tables: dense,
// slice-backed replacements for per-key maps, plus the pooled waiter
// lists and the watermark heap its park/wake scheduler runs on. None of
// them allocates per record; storage grows amortized.

// maxDenseVar bounds the variable ids kept in direct-indexed slices;
// larger or negative ids (rare: codecs carry ids as int32) go through a
// map.
const maxDenseVar = 1 << 12

// iterBase offsets iteration numbers in the dense pair rows, so the
// negative iterations of DOACROSS warm-up awaits (-1 .. -distance) index
// the slice directly.
const iterBase = 64

// denseFill bounds how sparse a dense pair row may get: a row grows only
// to a length of at most denseFill*touches + denseMin, where touches
// counts the creating lookups the row has served (at least one per key,
// at most a few per event fed). A row's memory therefore stays
// proportional to the events that reached it, whatever iterations they
// carry; keys the rule turns away go to the row's map.
const denseFill = 4

// denseMin is a new dense row's length: the warm-up iterations and the
// first iterBase iterations, so a loop's keys never start in the map.
const denseMin = 2 * iterBase

// varSlots maps variable ids to dense row numbers in first-seen order.
type varSlots struct {
	small []int32       // id -> row+1 for 0 <= id < maxDenseVar, 0 = absent
	large map[int]int32 // other ids -> row+1
	n     int32
}

// row returns the row number of variable id, adding it when create is
// set, or -1 when it is absent.
func (s *varSlots) row(id int, create bool) int {
	dense := id >= 0 && id < maxDenseVar
	var r int32
	if dense {
		if id < len(s.small) {
			r = s.small[id]
		}
	} else {
		r = s.large[id]
	}
	if r != 0 || !create {
		return int(r) - 1
	}
	s.n++
	if dense {
		if id >= len(s.small) {
			s.small = append(s.small, make([]int32, id+1-len(s.small))...)
		}
		s.small[id] = s.n
	} else {
		if s.large == nil {
			s.large = make(map[int]int32)
		}
		s.large[id] = s.n
	}
	return int(s.n) - 1
}

// pairTable maps a pairing key (variable, iteration) to a record of type
// T, stored by value in a per-variable row indexed by iteration. Keys
// outside a row's dense range fall back to the row's map into a slab.
// A record's zero value must mean "nothing recorded yet": get may hand
// out zero records for keys never created.
//
// Pointers returned by get stay valid only until the next get with
// create set.
type pairTable[T any] struct {
	vars varSlots
	rows []pairRow[T]
}

type pairRow[T any] struct {
	dense   []T         // dense[iter+iterBase]
	sparse  map[int]int // iteration -> index into slab
	slab    []T
	touches int // creating lookups served
}

// get returns the record for (v, it), creating it when create is set;
// nil when it is absent and create is unset.
func (t *pairTable[T]) get(v, it int, create bool) *T {
	r := t.vars.row(v, create)
	if r < 0 {
		return nil
	}
	if r == len(t.rows) {
		t.rows = append(t.rows, pairRow[T]{})
	}
	row := &t.rows[r]
	if create {
		row.touches++
	}
	i := it + iterBase
	if i >= 0 && i < len(row.dense) {
		return &row.dense[i]
	}
	if j, ok := row.sparse[it]; ok {
		return &row.slab[j]
	}
	if !create {
		return nil
	}
	if n := max(i+1, 2*len(row.dense), denseMin); i >= 0 && n <= denseFill*row.touches+denseMin {
		row.grow(n)
		return &row.dense[i]
	}
	if row.sparse == nil {
		row.sparse = make(map[int]int)
	}
	var zero T
	row.slab = append(row.slab, zero)
	row.sparse[it] = len(row.slab) - 1
	return &row.slab[len(row.slab)-1]
}

// grow extends the dense row to n slots, moving any sparse records the
// new range covers so each key lives in exactly one place.
func (row *pairRow[T]) grow(n int) {
	old := len(row.dense)
	grown := make([]T, n)
	copy(grown, row.dense)
	row.dense = grown
	for it, j := range row.sparse {
		if i := it + iterBase; i >= old && i < n {
			row.dense[i] = row.slab[j]
			delete(row.sparse, it)
		}
	}
}

// lockTable records, per lock variable, the lock-rel events in arrival
// order. An acquisition serializes on the latest release fed before it,
// found by sequence number.
type lockTable struct {
	vars varSlots
	rels [][]relRec
}

// add appends the release with arrival position seq on lock v.
func (t *lockTable) add(v, seq int) {
	r := t.vars.row(v, true)
	if r == len(t.rels) {
		t.rels = append(t.rels, nil)
	}
	t.rels[r] = append(t.rels[r], relRec{seq: seq})
}

// before returns the latest release on lock v with arrival position
// below seq, or nil if the lock had no release yet.
func (t *lockTable) before(v, seq int) *relRec {
	r := t.vars.row(v, false)
	if r < 0 {
		return nil
	}
	rs := t.rels[r]
	i := sort.Search(len(rs), func(i int) bool { return rs[i].seq >= seq }) // first at or after seq
	if i == 0 {
		return nil
	}
	return &rs[i-1]
}

// at returns the release with arrival position seq on lock v.
func (t *lockTable) at(v, seq int) *relRec {
	return t.before(v, seq+1)
}

// waiter is one pooled waiter-list node: processor proc parked with
// generation gen. A node whose gen no longer matches the processor's is
// stale (the processor was woken by another source) and is dropped.
type waiter struct {
	proc int32
	gen  uint32
	next int32 // index+1 of the next node, 0 = end of list
}

// wmPark is a watermark-heap entry: processor proc waits for the
// watermark to pass measured time t (an optimistic absence decision).
type wmPark struct {
	t    trace.Time
	proc int32
	gen  uint32
}

// wmHeap is a binary min-heap of watermark parks keyed by time.
type wmHeap []wmPark

func (h *wmHeap) push(x wmPark) {
	*h = append(*h, x)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p].t <= s[i].t {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *wmHeap) pop() wmPark {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	for i := 0; ; {
		l := 2*i + 1
		if l >= len(s) {
			break
		}
		m := l
		if r := l + 1; r < len(s) && s[r].t < s[l].t {
			m = r
		}
		if s[i].t <= s[m].t {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*h = s
	return top
}
