package rel

import (
	"testing"

	"repro/internal/bat"
	"repro/internal/exec"
)

var exchangeShardGrid = []int{1, 2, 7, 16}

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
