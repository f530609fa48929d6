package rel

import (
	"fmt"
	"strings"

	"repro/internal/bat"
	"repro/internal/exec"
)

// This file holds the streaming (morsel-driven) counterparts of the
// pipeline breakers: a reusable join build side probed one morsel at a
// time, and a group-by accumulator fed one morsel at a time. Both
// preserve the determinism contract of their materializing originals —
// the streamed result is bitwise-identical to HashJoin/GroupBy over the
// concatenated input at any worker count — because probing is stateless
// per row and aggregation folds rows into the same SerialCutoff-aligned
// chunks regardless of how the morsels slice the input.

// JoinBuild is the build side of a streaming equi-join: constructed
// once from the materialized build keys, then probed once per morsel.
// Probe emits pairs in probe order with matches in build order — the
// same canonical order as HashJoin — so concatenating the
// per-morsel pair lists reproduces the all-at-once join exactly, at any
// shard count.
type JoinBuild struct {
	skc   *keyCols
	table *partIndex
}

// NewJoinBuild indexes the build-side key columns with the default
// fan-out: one flat table, radix-partitioned over the workers once the
// build side passes bat.SerialCutoff rows.
func NewJoinBuild(c *exec.Ctx, buildKeys []*bat.BAT) (*JoinBuild, error) {
	if len(buildKeys) == 0 {
		return nil, fmt.Errorf("rel: join build needs a non-empty key list")
	}
	return newJoinBuild(c, buildKeys, joinShards(c, buildKeys[0].Len())), nil
}

// NewPartitionedBuild is NewJoinBuild with an explicit exchange fan-out:
// the build side is hash-partitioned into shards (hash % shards), one
// flat table each. The probe output does not depend on the shard count.
func NewPartitionedBuild(c *exec.Ctx, buildKeys []*bat.BAT, shards int) (*JoinBuild, error) {
	if len(buildKeys) == 0 {
		return nil, fmt.Errorf("rel: join build needs a non-empty key list")
	}
	if shards < 1 {
		return nil, fmt.Errorf("rel: partitioned build needs at least one shard, got %d", shards)
	}
	return newJoinBuild(c, buildKeys, shards), nil
}

func newJoinBuild(c *exec.Ctx, buildKeys []*bat.BAT, shards int) *JoinBuild {
	skc := keyColsOf(c, buildKeys[0].Len(), buildKeys)
	return &JoinBuild{skc: skc, table: buildPartIndex(c, skc.hashes(c), shards)}
}

// Rows returns the build-side row count.
func (b *JoinBuild) Rows() int { return b.skc.n }

// Shards returns the build side's shard count.
func (b *JoinBuild) Shards() int { return len(b.table.parts) }

// ShardRows returns the number of build rows in shard pt.
func (b *JoinBuild) ShardRows(pt int) int { return b.table.shardRows(pt) }

// Probe joins one probe morsel against the build side. probeKeys are the
// morsel's key columns (same arity and pairing as the build keys).
// leftOuter emits (i, -1) for unmatched probe rows. The returned index
// slices come from the context's arena; callers hand them back with
// FreeInts when the morsel's output has been gathered.
func (b *JoinBuild) Probe(c *exec.Ctx, probeKeys []*bat.BAT, leftOuter bool) (li, ri []int, anyUnmatched bool, err error) {
	defer exec.CatchBudget(&err)
	if len(probeKeys) == 0 {
		return nil, nil, false, fmt.Errorf("rel: join probe needs a non-empty key list")
	}
	rkc := keyColsOf(c, probeKeys[0].Len(), probeKeys)
	li, ri, anyUnmatched = probePairs(c, b.table, rkc, b.skc, leftOuter)
	rkc.release(c)
	return li, ri, anyUnmatched, nil
}

// Release hands back the build side's densified key buffers. The
// JoinBuild must not be probed afterwards.
func (b *JoinBuild) Release(c *exec.Ctx) {
	if b == nil {
		return
	}
	b.skc.release(c)
	b.table = nil
}

// StreamAgg folds a stream of morsels into the same grouped result
// GroupBy computes over the materialized input. Bitwise identity holds
// because rows are folded into the same fixed chunks of bat.SerialCutoff
// global rows regardless of morsel boundaries: each chunk accumulates
// into fresh per-chunk states, and chunk partials are combined into the
// merged states in ascending chunk order — the exact association
// GroupBy uses. (Flushing every chunk, including the first, is safe:
// combining a chunk partial into a zero-initialized merged state
// reproduces the partial bitwise, since accumulated sums starting at +0
// can never be -0 and min/max copy through the ±Inf sentinels.)
//
// Group identity and order also match: groups are created in global
// first-seen order, keys compare with the same semantics as the
// materializing key columns (ints exactly, floats by canonical bits,
// strings by bytes), and the first-seen row's key values are stored as
// the group's representative — the value GroupBy gathers.
type StreamAgg struct {
	name string
	keys []string
	aggs []AggSpec
	kt   []bat.Type

	// Persistent per-group storage, in global first-seen order: the
	// group's key values (rep, one typed column per key), its key hash
	// (in groups, which also indexes the groups by hash), and the merged
	// aggregate states, len(aggs) per group.
	ngroups int
	rep     keyCols
	groups  groupIndex
	states  []aggState

	// Current chunk: per-group partial states (len(aggs) per touched
	// group) in chunk-local first-seen order. slotOf maps a group id to
	// its partial's slot, -1 while the group is untouched in this chunk.
	chunkStates  []aggState
	chunkTouched []int32
	slotOf       []int32
	rowsInChunk  int

	// Per-morsel scratch: typed views of the morsel's key vectors, their
	// hashes, and each row's chunk slot (-1 for a spilled row).
	mk      keyCols
	hbuf    []uint64
	rowSlot []int32

	// Out-of-core state (nil ctx disables spilling): once the resident
	// group table crosses the spill policy's threshold it freezes — rows
	// of resident groups keep folding in memory, rows of unseen keys are
	// staged to hash-partitioned disk files and replayed at Finish.
	c      *exec.Ctx
	seen   int64 // global rows consumed, spilled rows included
	frozen bool
	spill  *aggSpillState
}

// NewStreamAgg returns an accumulator for the given grouping keys (with
// their column types) and aggregates; an empty key list aggregates into
// a single global group. name names the result relation; hint is the
// expected group count (≤ 0 for default sizing).
func NewStreamAgg(name string, keys []string, keyTypes []bat.Type, aggs []AggSpec, hint int) (*StreamAgg, error) {
	return NewStreamAggCtx(nil, name, keys, keyTypes, aggs, hint)
}

// NewStreamAggCtx is NewStreamAgg bound to an execution context: when
// the context carries a spill manager, a group table crossing the spill
// threshold degrades to disk (see the StreamAgg doc) instead of growing
// without bound. A nil context keeps the purely in-memory behavior.
func NewStreamAggCtx(c *exec.Ctx, name string, keys []string, keyTypes []bat.Type, aggs []AggSpec, hint int) (*StreamAgg, error) {
	if len(aggs) == 0 {
		return nil, fmt.Errorf("rel: group by without aggregates")
	}
	if len(keys) != len(keyTypes) {
		return nil, fmt.Errorf("rel: %d grouping keys with %d types", len(keys), len(keyTypes))
	}
	return &StreamAgg{
		name:   name,
		keys:   keys,
		aggs:   aggs,
		kt:     keyTypes,
		c:      c,
		rep:    newKeyColsOfTypes(keyTypes),
		groups: newGroupIndex(hint),
	}, nil
}

// groupOf returns the merged group id of morsel row i (whose key hash
// is h), creating the group (and storing the row's key values as its
// representative) when absent. Once the table is frozen, rows of unseen
// keys return ok == false and must be spilled; resident groups keep
// folding in memory.
func (a *StreamAgg) groupOf(h uint64, i int) (id int, ok bool) {
	for s, g := a.groups.first(h); g >= 0; s, g = a.groups.next(s) {
		if a.groups.hash[g] == h && a.mk.equal(i, &a.rep, g) {
			return g, true
		}
	}
	if a.frozen {
		return 0, false
	}
	// The resident table is about to grow: freeze it when the spill
	// policy says its footprint is large enough to stage the tail of the
	// key space on disk instead.
	if a.c.ShouldSpill(a.residentEst()) {
		a.frozen = true
		return 0, false
	}
	a.groups.add(h)
	a.rep.appendRow(&a.mk, i)
	return a.newGroup(), true
}

// newGroup appends zeroed merged states for the next group id.
func (a *StreamAgg) newGroup() int {
	g := a.ngroups
	a.ngroups++
	a.states = appendAggStates(a.states, len(a.aggs))
	a.slotOf = append(a.slotOf, -1)
	return g
}

// residentEst is the rough in-memory footprint of the resident group
// table: states, key representatives, and index overhead per group.
func (a *StreamAgg) residentEst() int64 {
	per := int64(64 + 32*len(a.aggs) + 24*len(a.keys))
	return int64(a.ngroups) * per
}

// flushChunk combines the chunk partials into the merged states in
// chunk-local first-seen order and resets the chunk.
func (a *StreamAgg) flushChunk() {
	na := len(a.aggs)
	for slot, g := range a.chunkTouched {
		merged := a.states[int(g)*na : int(g+1)*na]
		part := a.chunkStates[slot*na : (slot+1)*na]
		for k := range merged {
			merged[k].combine(&part[k])
		}
		a.slotOf[g] = -1
	}
	a.chunkStates = a.chunkStates[:0]
	a.chunkTouched = a.chunkTouched[:0]
	a.rowsInChunk = 0
}

// Consume folds one morsel: keys holds the grouping key vectors (nil or
// empty for the global group), aggIn one float view per aggregate (nil
// for COUNT(*)), n the morsel's row count. Morsels must arrive in
// stream order; the morsel's key hashes are computed in one typed pass,
// then rows are folded serially — at MorselSize ≤ SerialCutoff the
// materializing path's chunks are serial too. The error is always nil
// unless the accumulator is spilling and disk I/O fails.
func (a *StreamAgg) Consume(keys []*bat.Vector, aggIn [][]float64, n int) error {
	keyed := len(a.keys) > 0
	if keyed {
		a.mk.bindVectors(keys, n)
		if cap(a.hbuf) < n {
			a.hbuf = make([]uint64, n)
		}
		a.mk.hashInto(a.hbuf[:n], 0, n)
	} else if a.ngroups == 0 && n > 0 {
		a.newGroup()
	}
	if cap(a.rowSlot) < n {
		a.rowSlot = make([]int32, n)
	}
	na := len(a.aggs)
	base := a.seen
	g, prev := 0, -1 // group of the previous resident row (prev), if any
	for i := 0; i < n; {
		if a.rowsInChunk == bat.SerialCutoff {
			a.flushChunk()
		}
		lo, end := i, min(n, i+bat.SerialCutoff-a.rowsInChunk)
		a.rowsInChunk += end - i
		// Resolve every row's chunk slot, then fold the aggregates one
		// column at a time. Each partial state still sees its rows in
		// row order, so sums associate exactly as a row-at-a-time fold.
		for ; i < end; i++ {
			if keyed {
				// Runs of equal keys (a probe row's join matches, clustered
				// input) reuse the previous row's group without a lookup.
				h := a.hbuf[i]
				if prev < 0 || a.hbuf[prev] != h || !a.mk.equal(i, &a.mk, prev) {
					var ok bool
					if g, ok = a.groupOf(h, i); !ok {
						// Unseen key after the freeze: stage the row to disk.
						// It still occupies its global chunk position.
						a.seen = base + int64(i)
						if err := a.spillRow(keys, aggIn, i, h); err != nil {
							return err
						}
						a.rowSlot[i] = -1
						prev = -1
						continue
					}
				}
				prev = i
			}
			slot := a.slotOf[g]
			if slot < 0 {
				slot = int32(len(a.chunkTouched))
				a.slotOf[g] = slot
				a.chunkTouched = append(a.chunkTouched, int32(g))
				a.chunkStates = appendAggStates(a.chunkStates, na)
			}
			a.rowSlot[i] = slot
		}
		for k := range a.aggs {
			col := aggIn[k]
			for r := lo; r < end; r++ {
				if slot := int(a.rowSlot[r]); slot >= 0 {
					a.chunkStates[slot*na+k].accumulate(col, r)
				}
			}
		}
	}
	a.seen = base + int64(n)
	return nil
}

// NumGroups returns the number of groups seen so far.
func (a *StreamAgg) NumGroups() int { return a.ngroups }

// Finish flushes the last partial chunk and assembles the grouped
// relation: key columns first (the stored representatives, in global
// first-seen order), then one column per aggregate — Count as BIGINT,
// the rest as DOUBLE — exactly GroupBy's output shape.
func (a *StreamAgg) Finish() (*Relation, error) {
	a.flushChunk()
	if a.spill != nil {
		// Replay the staged partitions: every spilled key's rows fold on
		// their original chunk boundaries and the recovered groups are
		// appended in global first-seen order, so the result below is
		// bitwise what the unfrozen accumulator would have produced.
		if err := a.replaySpilled(); err != nil {
			return nil, err
		}
	}
	nGroups := a.ngroups
	na := len(a.aggs)
	schema := make(Schema, 0, len(a.keys)+na)
	cols := make([]*bat.BAT, 0, len(a.keys)+na)
	for k, name := range a.keys {
		schema = append(schema, Attr{Name: name, Type: a.kt[k]})
		switch a.kt[k] {
		case bat.Int:
			cols = append(cols, bat.FromInts(a.rep.i[k][:nGroups:nGroups]))
		case bat.String:
			cols = append(cols, bat.FromStrings(a.rep.s[k][:nGroups:nGroups]))
		default:
			cols = append(cols, bat.FromFloats(a.rep.f[k][:nGroups:nGroups]))
		}
	}
	for k, sp := range a.aggs {
		name := sp.As
		if name == "" {
			name = fmt.Sprintf("%s_%s", strings.ToLower(sp.Func.String()), sp.Attr)
		}
		switch sp.Func {
		case Count:
			out := make([]int64, nGroups)
			for g := range out {
				out[g] = a.states[g*na+k].count
			}
			schema = append(schema, Attr{Name: name, Type: bat.Int})
			cols = append(cols, bat.FromInts(out))
		default:
			out := make([]float64, nGroups)
			for g := range out {
				st := &a.states[g*na+k]
				switch sp.Func {
				case Sum:
					out[g] = st.sum
				case Avg:
					out[g] = st.sum / float64(st.count)
				case Min:
					out[g] = st.min
				case Max:
					out[g] = st.max
				}
			}
			schema = append(schema, Attr{Name: name, Type: bat.Float})
			cols = append(cols, bat.FromFloats(out))
		}
	}
	return New(a.name, schema, cols)
}
