package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// TestPairTableMatchesMap: the dense table with its sparse fallback
// behaves as a map from (variable, iteration) to record, whatever order
// keys arrive in — including keys that start out sparse and are later
// covered by a growing dense row, and ids no slice could index.
func TestPairTableMatchesMap(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	type key struct{ v, it int }
	var tab pairTable[advRec]
	want := map[key]int{}
	ids := []int{math.MinInt64, -1, 0, 1, 2, maxDenseVar - 1, maxDenseVar, math.MaxInt64}
	iters := func() int {
		switch r.Intn(4) {
		case 0:
			return ids[r.Intn(len(ids))]
		case 1:
			return r.Intn(20_000) - iterBase - 10 // reaches past the dense range
		default:
			return r.Intn(600) - 70
		}
	}
	for n := 1; n <= 20_000; n++ {
		k := key{ids[r.Intn(len(ids))], iters()}
		if r.Intn(3) == 0 {
			if rec := tab.get(k.v, k.it, false); rec != nil && rec.seq != want[k] {
				t.Fatalf("get(%d, %d) = seq %d, want %d", k.v, k.it, rec.seq, want[k])
			} else if rec == nil && want[k] != 0 {
				t.Fatalf("get(%d, %d) lost its record", k.v, k.it)
			}
			continue
		}
		tab.get(k.v, k.it, true).seq = n
		want[k] = n
	}
	for k, seq := range want {
		if rec := tab.get(k.v, k.it, false); rec == nil || rec.seq != seq {
			t.Fatalf("final get(%d, %d) = %v, want seq %d", k.v, k.it, rec, seq)
		}
	}
}

// TestPairTableMemoryFollowsKeys: a row's memory follows the keys it
// holds, not their iteration numbers. Iterations that roughly double each
// time land in the row's map instead of stretching its dense part, while
// a loop's consecutive iterations stay dense.
func TestPairTableMemoryFollowsKeys(t *testing.T) {
	var tab pairTable[advRec]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	keys := 0
	for it := 900; it < 1<<22; it = 2*it + 1000 {
		tab.get(5, it, true).seq = it
		keys++
	}
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d > 64<<10 {
		t.Errorf("%d keys with geometric iterations allocated %d bytes", keys, d)
	}
	for it := 900; it < 1<<22; it = 2*it + 1000 {
		if rec := tab.get(5, it, false); rec == nil || rec.seq != it {
			t.Fatalf("get(5, %d) = %v, want seq %d", it, rec, it)
		}
	}

	var loop pairTable[advRec]
	for it := -1; it < 100_000; it++ {
		loop.get(3, it, true).seq = it + 2
	}
	if row := &loop.rows[0]; row.sparse != nil || len(row.dense) > 4*(100_000+iterBase) {
		t.Errorf("consecutive iterations: %d sparse keys, dense length %d", len(row.sparse), len(row.dense))
	}
}
