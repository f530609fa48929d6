package rel

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bat"
	"repro/internal/exec"
)

// This file implements radix-partitioned (exchange) execution for the
// pipeline breakers: rows are hash-partitioned into P shards on their
// typed 64-bit key hashes (shard = hash % P — the mix64 finalizer
// spreads entropy over all bits, so the low bits select shards as well
// as they select the join table's radix partitions), each shard joins
// or aggregates independently, and the shard results are recombined in
// a fixed order. Everything is bitwise-identical to the single-table
// operators at any worker budget and any shard count:
//
//   - ExchangeJoin reproduces HashJoin's canonical output order
//     because every probe row lives in exactly one shard: the per-shard
//     probes write disjoint entries of one global per-row match-count
//     array, a single serial prefix sum assigns output offsets in probe
//     order, and the per-shard scatters fill disjoint output ranges.
//   - ExchangeGroupBy reproduces GroupBySized because every group's
//     rows live in one shard and still fold on the global
//     bat.SerialCutoff chunk boundaries — the per-group combine
//     sequence is chunk-ascending either way — and the shard group
//     lists are merged by ascending first-seen row, which is exactly
//     the global first-seen order.
//
// The streaming counterpart is NewPartitionedBuild: the SQL pipeline's
// join build side sharded the same way, with the same bitwise contract.

// partitionRows splits row indices [0, len(h)) into per-shard row lists
// by h[i] % shards: rows holds the concatenated lists, start[p]:start[p+1]
// delimits shard p. The scatter is chunk-major (per-chunk histograms,
// then prefix offsets), so every shard's list is ascending regardless of
// the worker budget — the property all the determinism arguments above
// lean on. rows comes from the context's arena; callers hand it back
// with FreeInts.
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

// ExchangeJoin computes r ⋈ s through a radix exchange: both sides are
// hash-partitioned into shards, each shard builds and probes its own
// hash table, and the shard outputs land in the canonical probe-order
// layout through one global offset array. The result is
// bitwise-identical to HashJoin at any worker budget and shard
// count. When ps is non-nil, one stage per shard reports the shard's
// build rows and emitted pairs.
func ExchangeJoin(c *exec.Ctx, r, s *Relation, rKeys, sKeys []string, jt JoinType, shards int, ps *exec.PipelineStats) (res *Relation, err error) {
	defer exec.CatchBudget(&err)
	if shards < 1 {
		return nil, fmt.Errorf("rel: exchange join needs at least one shard, got %d", shards)
	}
	if len(rKeys) != len(sKeys) || len(rKeys) == 0 {
		return nil, fmt.Errorf("rel: join needs matching non-empty key lists")
	}
	rkc, err := newKeyCols(c, r, rKeys)
	if err != nil {
		return nil, err
	}
	defer rkc.release(c)
	skc, err := newKeyCols(c, s, sKeys)
	if err != nil {
		return nil, err
	}
	defer skc.release(c)
	dropped := make(map[string]bool, len(sKeys))
	for _, a := range sKeys {
		dropped[a] = true
	}
	var sAttrs []string
	for _, a := range s.Schema {
		if !dropped[a.Name] {
			if r.Schema.Index(a.Name) >= 0 {
				return nil, fmt.Errorf("rel: join: attribute %q appears on both sides; rename first", a.Name)
			}
			sAttrs = append(sAttrs, a.Name)
		}
	}
	leftOuter := jt == Left

	// Shard the build side and build one flat table per shard. Row
	// lists stay ascending (partitionRows is chunk-major), which is
	// what keeps per-probe matches in build order.
	tables := buildPartIndex(c, skc.hashes(c), shards)

	// Shard the probe side. Probe pass 1: per-shard match counting into
	// one global per-row array — rows are disjoint across shards.
	rh := rkc.hashes(c)
	n := rkc.n
	rRows, rStart := partitionRows(c, rh, shards)
	counts := c.Arena().Ints(n)
	c.ParallelFor(shards, 1, func(plo, phi int) {
		for pt := plo; pt < phi; pt++ {
			tab := tables.parts[pt]
			for _, i := range rRows[rStart[pt]:rStart[pt+1]] {
				cnt := 0
				for _, j := range tab.lookup(rh[i]) {
					if rkc.equal(i, skc, j) {
						cnt++
					}
				}
				counts[i] = cnt
			}
		}
	})

	// The same fixed serial prefix sum as probePairs: output offsets in
	// probe order, independent of the sharding.
	total := 0
	anyUnmatched := false
	for i := 0; i < n; i++ {
		cnt := counts[i]
		if cnt == 0 && leftOuter {
			cnt = 1
			anyUnmatched = true
		}
		counts[i] = total
		total += cnt
	}

	// Probe pass 2: per-shard scatter into disjoint ranges of the
	// canonical output.
	li := c.Arena().Ints(total)
	ri := c.Arena().Ints(total)
	shardPairs := make([]int, shards)
	c.ParallelFor(shards, 1, func(plo, phi int) {
		for pt := plo; pt < phi; pt++ {
			tab := tables.parts[pt]
			pairs := 0
			for _, i := range rRows[rStart[pt]:rStart[pt+1]] {
				k := counts[i]
				wrote := false
				for _, j := range tab.lookup(rh[i]) {
					if rkc.equal(i, skc, j) {
						li[k] = i
						ri[k] = j
						k++
						wrote = true
						pairs++
					}
				}
				if !wrote && leftOuter {
					li[k] = i
					ri[k] = -1
					pairs++
				}
			}
			shardPairs[pt] = pairs
		}
	})
	c.Arena().FreeInts(counts)
	c.Arena().FreeInts(rRows)
	if ps != nil {
		for pt := 0; pt < shards; pt++ {
			ps.Stage(fmt.Sprintf("exchange.join[shard %d/%d]", pt, shards)).
				Batch(shardPairs[pt], int64(tables.shardRows(pt))*8+int64(shardPairs[pt])*16)
		}
	}
	rkc.release(c)
	skc.release(c)

	left := r.Gather(c, li)
	schema := left.Schema.Clone()
	cols := append([]*bat.BAT(nil), left.Cols...)
	for _, name := range sAttrs {
		j := s.Schema.Index(name)
		schema = append(schema, s.Schema[j])
		cols = append(cols, gatherWithNulls(c, s.Cols[j], ri, leftOuter && anyUnmatched))
	}
	c.Arena().FreeInts(li)
	c.Arena().FreeInts(ri)
	return New(r.Name, schema, cols)
}

// ExchangeGroupBy computes ϑ through a radix exchange: rows are
// hash-partitioned into shards, each shard aggregates its rows on the
// global bat.SerialCutoff chunk boundaries, and the shard group lists
// are merged by ascending first-seen row. Bitwise-identical to
// GroupBySized at any worker budget and shard count. An empty key list
// (one global group) has nothing to partition on and delegates. When
// ps is non-nil, one stage per shard reports the shard's group count.
func ExchangeGroupBy(c *exec.Ctx, r *Relation, keys []string, aggs []AggSpec, shards, groupHint int, ps *exec.PipelineStats) (res *Relation, err error) {
	defer exec.CatchBudget(&err)
	if shards < 1 {
		return nil, fmt.Errorf("rel: exchange group-by needs at least one shard, got %d", shards)
	}
	if len(keys) == 0 {
		return GroupBySized(c, r, keys, aggs, groupHint)
	}
	if len(aggs) == 0 {
		return nil, fmt.Errorf("rel: group by without aggregates")
	}
	inCols := make([][]float64, len(aggs))
	srcCols := make([]*bat.BAT, len(aggs))
	defer func() {
		for k, f := range inCols {
			if srcCols[k] != nil {
				srcCols[k].ReleaseFloats(c, f)
			}
		}
	}()
	for k, a := range aggs {
		if a.Attr == "" {
			if a.Func != Count {
				return nil, fmt.Errorf("rel: %v(*) not supported", a.Func)
			}
			continue
		}
		col, err := r.Col(a.Attr)
		if err != nil {
			return nil, err
		}
		f, err := col.FloatsCtx(c)
		if err != nil {
			return nil, fmt.Errorf("rel: aggregate %v over non-numeric %q", a.Func, a.Attr)
		}
		inCols[k], srcCols[k] = f, col
	}
	kc, err := newKeyCols(c, r, keys)
	if err != nil {
		return nil, err
	}
	defer kc.release(c)
	hash := kc.hashes(c)

	rows, start := partitionRows(c, hash, shards)
	mergeds := make([]*aggTable, shards)
	c.ParallelFor(shards, 1, func(plo, phi int) {
		for pt := plo; pt < phi; pt++ {
			span := rows[start[pt]:start[pt+1]]
			hint := len(span)/4 + 1
			if groupHint > 0 && groupHint/shards < hint {
				hint = groupHint/shards + 1
			}
			merged := newAggTable(hint)
			// The shard's rows ascend, so each global SerialCutoff chunk
			// is one contiguous run: fold it into a fresh partial, then
			// combine partials in ascending chunk order — the exact
			// association GroupBySized uses (combining into a fresh
			// merged state reproduces a lone partial bitwise; see the
			// StreamAgg chunk-flush note).
			idx := 0
			for idx < len(span) {
				ch := span[idx] / bat.SerialCutoff
				t := newAggTable(hint/4 + 1)
				for idx < len(span) && span[idx]/bat.SerialCutoff == ch {
					i := span[idx]
					g := t.find(kc, hash, i, len(aggs))
					for k := range aggs {
						g.st[k].accumulate(inCols[k], i)
					}
					idx++
				}
				for li := range t.groups {
					lg := &t.groups[li]
					g := merged.find(kc, hash, lg.row, len(aggs))
					for k := range aggs {
						g.st[k].combine(&lg.st[k])
					}
				}
			}
			mergeds[pt] = merged
		}
	})
	c.Arena().FreeInts(rows)
	if ps != nil {
		for pt := 0; pt < shards; pt++ {
			ps.Stage(fmt.Sprintf("exchange.group[shard %d/%d]", pt, shards)).
				Batch(len(mergeds[pt].groups), int64(start[pt+1]-start[pt])*8)
		}
	}

	// Merge the shard group lists in global first-seen order. A group's
	// stored row is its first (minimum) global row — shards fold rows
	// ascending — and first rows are unique across groups, so sorting
	// by row reproduces GroupBySized's output order exactly.
	type ent struct{ pt, gi int }
	var ents []ent
	for pt, m := range mergeds {
		for gi := range m.groups {
			ents = append(ents, ent{pt, gi})
		}
	}
	sort.Slice(ents, func(i, j int) bool {
		return mergeds[ents[i].pt].groups[ents[i].gi].row < mergeds[ents[j].pt].groups[ents[j].gi].row
	})
	groups := make([]int, len(ents))
	states := make([][]aggState, len(ents))
	for k, e := range ents {
		g := &mergeds[e.pt].groups[e.gi]
		groups[k] = g.row
		states[k] = g.st
	}
	kc.release(c)

	schema := make(Schema, 0, len(keys)+len(aggs))
	cols := make([]*bat.BAT, 0, len(keys)+len(aggs))
	rep := r.Gather(c, groups)
	for _, name := range keys {
		j := rep.Schema.Index(name)
		schema = append(schema, rep.Schema[j])
		cols = append(cols, rep.Cols[j])
	}
	for k, a := range aggs {
		name := a.As
		if name == "" {
			name = fmt.Sprintf("%s_%s", strings.ToLower(a.Func.String()), a.Attr)
		}
		switch a.Func {
		case Count:
			out := make([]int64, len(groups))
			for g := range groups {
				out[g] = states[g][k].count
			}
			schema = append(schema, Attr{Name: name, Type: bat.Int})
			cols = append(cols, bat.FromInts(out))
		default:
			out := make([]float64, len(groups))
			for g := range groups {
				st := &states[g][k]
				switch a.Func {
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
	return New(r.Name, schema, cols)
}
