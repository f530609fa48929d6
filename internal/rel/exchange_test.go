package rel

import (
	"strings"
	"testing"

	"repro/internal/bat"
	"repro/internal/exec"
)

var exchangeShardGrid = []int{1, 2, 7, 16}

// TestExchangeJoinBitwiseHashJoin: the radix-exchange join must be
// bitwise-identical to HashJoin — same rows, same canonical order
// — at worker budgets {1,2,8} and shard counts {1,2,7,16}, inner and
// left outer, on sizes spanning multiple SerialCutoff chunks.
func TestExchangeJoinBitwiseHashJoin(t *testing.T) {
	for _, n := range []int{7, bat.SerialCutoff + 1, 2*bat.SerialCutoff + 3} {
		r := boundaryRel("r", n, int64(n/3+2))
		s := boundaryRel("s", n/2+1, int64(n/3+2))
		for _, jt := range []JoinType{Inner, Left} {
			var want *Relation
			withWorkers(1, func() {
				j, err := HashJoin(nil, r, s, []string{"r_k"}, []string{"s_k"}, jt)
				if err != nil {
					t.Fatal(err)
				}
				want = j
			})
			for _, w := range []int{1, 2, 8} {
				for _, shards := range exchangeShardGrid {
					withWorkers(w, func() {
						got, err := ExchangeJoin(nil, r, s, []string{"r_k"}, []string{"s_k"}, jt, shards, nil)
						if err != nil {
							t.Fatal(err)
						}
						if !equalRelations(got, want) {
							t.Fatalf("ExchangeJoin n=%d jt=%d workers=%d shards=%d differs from HashJoin", n, jt, w, shards)
						}
					})
				}
			}
		}
	}
}

// TestExchangeJoinShardStats: with a stats sink, the exchange join
// reports one stage per shard whose pair counts sum to the result size.
func TestExchangeJoinShardStats(t *testing.T) {
	n := bat.SerialCutoff + 17
	r := boundaryRel("r", n, 64)
	s := boundaryRel("s", n/2, 64)
	ps := exec.NewPipelineStats()
	got, err := ExchangeJoin(exec.New(4), r, s, []string{"r_k"}, []string{"s_k"}, Inner, 7, ps)
	if err != nil {
		t.Fatal(err)
	}
	snap := ps.Snapshot()
	shardStages, totalPairs := 0, 0
	for _, st := range snap {
		if strings.HasPrefix(st.Name, "exchange.join[shard ") {
			shardStages++
			totalPairs += int(st.Rows)
		}
	}
	if shardStages != 7 {
		t.Fatalf("%d shard stages, want 7 (snapshot: %+v)", shardStages, snap)
	}
	if totalPairs != got.NumRows() {
		t.Fatalf("shard stages report %d pairs, result has %d rows", totalPairs, got.NumRows())
	}
}

// TestExchangeGroupByBitwiseGroupBy: the radix-exchange aggregation
// must be bitwise-identical to GroupBySized — group order, counts,
// float sums — at worker budgets {1,2,8} and shard counts {1,2,7,16},
// including sizes that span multiple SerialCutoff chunks.
func TestExchangeGroupByBitwiseGroupBy(t *testing.T) {
	aggs := []AggSpec{
		{Func: Count, As: "n"},
		{Func: Sum, Attr: "r_v", As: "s"},
		{Func: Avg, Attr: "r_v", As: "a"},
		{Func: Min, Attr: "r_v", As: "lo"},
		{Func: Max, Attr: "r_v", As: "hi"},
	}
	for _, n := range []int{1, 7, bat.SerialCutoff + 1, 2*bat.SerialCutoff + 3} {
		r := boundaryRel("r", n, 64)
		var want *Relation
		withWorkers(1, func() {
			g, err := GroupBySized(nil, r, []string{"r_k", "r_t"}, aggs, 0)
			if err != nil {
				t.Fatal(err)
			}
			want = g
		})
		for _, w := range []int{1, 2, 8} {
			for _, shards := range exchangeShardGrid {
				withWorkers(w, func() {
					got, err := ExchangeGroupBy(nil, r, []string{"r_k", "r_t"}, aggs, shards, 0, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !equalRelations(got, want) {
						t.Fatalf("ExchangeGroupBy n=%d workers=%d shards=%d differs from GroupBySized", n, w, shards)
					}
				})
			}
		}
	}
}

// TestExchangePartitionedBuildMatchesJoinBuild probes a sharded build
// and a single-table build with the same morsel stream and asserts the
// pair sequences are identical morsel for morsel.
func TestExchangePartitionedBuildMatchesJoinBuild(t *testing.T) {
	pn, bn := 2*bat.SerialCutoff+41, 3000
	probe := boundaryRel("p", pn, 500)
	build := boundaryRel("b", bn, 500)
	pk, _ := probe.Col("p_k")
	bk, _ := build.Col("b_k")
	for _, w := range []int{1, 2, 8} {
		c := exec.New(w)
		jb, err := NewJoinBuild(c, []*bat.BAT{bk})
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range exchangeShardGrid {
			pb, err := NewPartitionedBuild(c, []*bat.BAT{bk}, shards)
			if err != nil {
				t.Fatal(err)
			}
			if pb.Rows() != bn || pb.Shards() != shards {
				t.Fatalf("build shape: rows=%d shards=%d", pb.Rows(), pb.Shards())
			}
			rowSum := 0
			for pt := 0; pt < shards; pt++ {
				rowSum += pb.ShardRows(pt)
			}
			if rowSum != bn {
				t.Fatalf("shard rows sum to %d, want %d", rowSum, bn)
			}
			for _, leftOuter := range []bool{false, true} {
				for lo := 0; lo < pn; lo += bat.MorselSize {
					hi := min(lo+bat.MorselSize, pn)
					morselKeys := []*bat.BAT{pk.Gather(c, identityRange(lo, hi))}
					li1, ri1, u1, err := jb.Probe(c, morselKeys, leftOuter)
					if err != nil {
						t.Fatal(err)
					}
					li2, ri2, u2, err := pb.Probe(c, morselKeys, leftOuter)
					if err != nil {
						t.Fatal(err)
					}
					if u1 != u2 || len(li1) != len(li2) {
						t.Fatalf("w=%d shards=%d morsel@%d: shape mismatch (%d/%v vs %d/%v)", w, shards, lo, len(li1), u1, len(li2), u2)
					}
					for k := range li1 {
						if li1[k] != li2[k] || ri1[k] != ri2[k] {
							t.Fatalf("w=%d shards=%d morsel@%d pair %d: (%d,%d) vs (%d,%d)", w, shards, lo, k, li1[k], ri1[k], li2[k], ri2[k])
						}
					}
					c.Arena().FreeInts(li1)
					c.Arena().FreeInts(ri1)
					c.Arena().FreeInts(li2)
					c.Arena().FreeInts(ri2)
				}
			}
			pb.Release(c)
		}
		jb.Release(c)
	}
}

func identityRange(lo, hi int) []int {
	idx := make([]int, hi-lo)
	for i := range idx {
		idx[i] = lo + i
	}
	return idx
}
