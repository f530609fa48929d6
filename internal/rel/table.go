package rel

import (
	"math/bits"

	"repro/internal/bat"
	"repro/internal/exec"
)

// This file holds the engine's two hash tables. Both are flat,
// open-addressed slot arrays over the typed 64-bit key hashes of key.go
// (home slot from the hash's high bits, linear probing), so a lookup is
// a few array reads and building one costs a handful of allocations
// instead of one per distinct key:
//
//   - flatIndex is the equi-join build side: build rows grouped by key
//     hash, laid out contiguously slot by slot.
//   - groupIndex maps key hashes to group ids for the grouping
//     operators (GroupBy, StreamAgg, Distinct).
//
// Neither table decides an output order. Join matches come back in
// build order because every slot's row list is ascending, and groups
// keep their first-seen ids; the slot layout only affects speed.

// slotBits returns the log2 slot count for n entries at a load factor
// of at most one half.
func slotBits(n int) uint {
	return uint(max(bits.Len(uint(2*n)), 1))
}

// flatIndex is the build-side index of an equi-join over the ascending
// row list it was built from. Slot s holds one distinct key hash
// (hash[s]) and its build rows rows[start[s]:start[s+1]], ascending; a
// slot with an empty range is free.
type flatIndex struct {
	shift uint
	hash  []uint64
	start []int32
	rows  []int
}

// newFlatIndex indexes the build rows list (ascending; nil means every
// row of h) by their hashes h[j] in two passes: count each hash into its
// slot, prefix-sum the counts, then scatter the row ids.
func newFlatIndex(h []uint64, list []int) *flatIndex {
	m := len(list)
	if list == nil {
		m = len(h)
	}
	b := slotBits(m)
	size := 1 << b
	mask := uint64(size - 1)
	t := &flatIndex{
		shift: 64 - b,
		hash:  make([]uint64, size),
		start: make([]int32, size+1),
		rows:  make([]int, m),
	}
	// Pass 1: claim a slot per distinct hash and count its rows. The
	// counts land in start[s+1], so the in-place prefix sum below leaves
	// start[s+1] at the end of slot s's range.
	slotOf := make([]int32, m)
	for k := 0; k < m; k++ {
		j := k
		if list != nil {
			j = list[k]
		}
		hv := h[j]
		s := hv >> t.shift
		for t.start[s+1] != 0 && t.hash[s] != hv {
			s = (s + 1) & mask
		}
		t.hash[s] = hv
		t.start[s+1]++
		slotOf[k] = int32(s)
	}
	for s := 1; s <= size; s++ {
		t.start[s] += t.start[s-1]
	}
	// Pass 2: scatter back to front, decrementing each slot's end; every
	// range fills in ascending row order and its end comes to rest on
	// its start.
	for k := m - 1; k >= 0; k-- {
		j := k
		if list != nil {
			j = list[k]
		}
		s := slotOf[k] + 1
		t.start[s]--
		t.rows[t.start[s]] = j
	}
	// start[s+1] now holds slot s's start; shift the array down one.
	copy(t.start, t.start[1:])
	t.start[size] = int32(m)
	return t
}

// lookup returns the build rows whose key hash is h, ascending. The
// slice aliases the index and must not be modified.
func (t *flatIndex) lookup(h uint64) []int {
	mask := uint64(len(t.hash) - 1)
	for s := h >> t.shift; ; s = (s + 1) & mask {
		lo, hi := t.start[s], t.start[s+1]
		if lo == hi {
			return nil
		}
		if t.hash[s] == h {
			return t.rows[lo:hi]
		}
	}
}

// partIndex is a build side split into shards by hash % len(parts),
// one flatIndex per shard. One shard is the plain single-table build.
type partIndex struct {
	parts []*flatIndex
}

func (t *partIndex) lookup(h uint64) []int {
	pt := 0
	if len(t.parts) > 1 {
		pt = int(h % uint64(len(t.parts)))
	}
	return t.parts[pt].lookup(h)
}

// shardRows returns the number of build rows in shard pt.
func (t *partIndex) shardRows(pt int) int { return len(t.parts[pt].rows) }

// buildPartIndex indexes build-side hashes over the given shard count.
// Above one shard the rows are radix-partitioned chunk-major (every
// shard's row list stays ascending) and the shard tables are built in
// parallel.
func buildPartIndex(c *exec.Ctx, h []uint64, shards int) *partIndex {
	if shards <= 1 {
		return &partIndex{parts: []*flatIndex{newFlatIndex(h, nil)}}
	}
	rows, start := partitionRows(c, h, shards)
	parts := make([]*flatIndex, shards)
	c.ParallelFor(shards, 1, func(plo, phi int) {
		for pt := plo; pt < phi; pt++ {
			parts[pt] = newFlatIndex(h, rows[start[pt]:start[pt+1]])
		}
	})
	c.Arena().FreeInts(rows)
	return &partIndex{parts: parts}
}

// partitionRows splits row indices [0, len(h)) into per-shard row lists
// by h[i] % shards: rows holds the concatenated lists, start[p]:start[p+1]
// delimits shard p. The scatter is chunk-major (per-chunk histograms,
// then prefix offsets), so every shard's list is ascending regardless of
// the worker budget, and join matches still come back in build order.
// rows comes from the context's arena; callers hand it back with
// FreeInts.
func partitionRows(c *exec.Ctx, h []uint64, shards int) (rows []int, start []int) {
	m := len(h)
	p := uint64(shards)
	chunks, size := c.ParallelRuns(m)

	hist := c.Arena().Ints(chunks * shards)
	clear(hist)
	c.ParallelFor(chunks, 1, func(clo, chi int) {
		for ch := clo; ch < chi; ch++ {
			row := hist[ch*shards : (ch+1)*shards]
			for j := ch * size; j < min((ch+1)*size, m); j++ {
				row[h[j]%p]++
			}
		}
	})
	start = make([]int, shards+1)
	pos := c.Arena().Ints(chunks * shards)
	off := 0
	for pt := 0; pt < shards; pt++ {
		start[pt] = off
		for ch := 0; ch < chunks; ch++ {
			pos[ch*shards+pt] = off
			off += hist[ch*shards+pt]
		}
	}
	start[shards] = off

	rows = c.Arena().Ints(m)
	c.ParallelFor(chunks, 1, func(clo, chi int) {
		for ch := clo; ch < chi; ch++ {
			cursor := pos[ch*shards : (ch+1)*shards]
			for j := ch * size; j < min((ch+1)*size, m); j++ {
				pt := h[j] % p
				rows[cursor[pt]] = j
				cursor[pt]++
			}
		}
	})
	c.Arena().FreeInts(hist)
	c.Arena().FreeInts(pos)
	return rows, start
}

// joinShards is the default build fan-out: one table for small inputs or
// a serial budget, otherwise the next power of two at or above the
// worker count (at most 64).
func joinShards(c *exec.Ctx, buildRows int) int {
	if buildRows <= bat.SerialCutoff || c.Workers() <= 1 {
		return 1
	}
	p := 1
	for p < c.Workers() && p < 64 {
		p <<= 1
	}
	return p
}

// groupIndex maps key hashes to group ids, which are handed out densely
// in insertion (first-seen) order. Distinct keys may share a hash, so a
// lookup walks the probe chain and lets the caller confirm key equality.
type groupIndex struct {
	shift uint
	slots []int32  // group id + 1; 0 marks a free slot
	hash  []uint64 // per group id
}

// newGroupIndex returns an empty index pre-sized for hint groups.
func newGroupIndex(hint int) groupIndex {
	b := slotBits(max(hint, 8))
	return groupIndex{shift: 64 - b, slots: make([]int32, 1<<b)}
}

// first returns the home slot of hash h and the group stored there (-1
// when the slot is free). Callers walk the probe chain with next until
// the group is -1, matching candidates by hash[g] == h and their key:
//
//	for s, g := t.first(h); g >= 0; s, g = t.next(s) { ... }
func (t *groupIndex) first(h uint64) (uint64, int) {
	s := h >> t.shift
	return s, int(t.slots[s]) - 1
}

// next steps a probe chain to the following slot.
func (t *groupIndex) next(s uint64) (uint64, int) {
	s = (s + 1) & uint64(len(t.slots)-1)
	return s, int(t.slots[s]) - 1
}

// add appends a group with hash h and returns its id, doubling the slot
// array first when it would pass half full.
func (t *groupIndex) add(h uint64) int {
	g := len(t.hash)
	t.hash = append(t.hash, h)
	if 2*len(t.hash) > len(t.slots) {
		b := slotBits(len(t.hash))
		t.shift = 64 - b
		t.slots = make([]int32, 1<<b)
		for id, hv := range t.hash {
			t.place(hv, id)
		}
		return g
	}
	t.place(h, g)
	return g
}

func (t *groupIndex) place(h uint64, g int) {
	mask := uint64(len(t.slots) - 1)
	s := h >> t.shift
	for t.slots[s] != 0 {
		s = (s + 1) & mask
	}
	t.slots[s] = int32(g + 1)
}
