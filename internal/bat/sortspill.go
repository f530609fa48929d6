package bat

import (
	"os"

	"repro/internal/exec"
	"repro/internal/store"
)

// sortMergeSpilled is the out-of-core merge phase of sortPerm: the
// per-run sorted permutations already sitting in idx are written to
// disk as segment files, then k-way merged back into idx streaming
// one block per run — so the merge needs no second n-int buffer in
// RAM. It runs only when the context's spill policy asks for it and
// reports whether it completed; false means the caller must run the
// in-memory merge instead.
//
// The merge prefers the lowest-numbered run on ties, exactly like the
// pairwise in-memory merge prefers its left input, and the stable
// permutation is unique — so the result is bit-identical to the
// in-memory path at any worker budget.
func sortMergeSpilled(c *exec.Ctx, idx []int, n, size int, compare func(a, b int) int) bool {
	if !c.ShouldSpill(int64(n) * int64(intSizeOf())) {
		return false
	}
	sp := c.Spill()
	runs := (n + size - 1) / size
	if runs < 2 {
		return true // a single run is already sorted in place
	}

	// Phase 1: persist every sorted run. Any failure here aborts
	// cleanly to the in-memory merge — idx is still intact.
	paths := make([]string, runs)
	var spilled int64
	block := make([]int64, 0, MorselSize)
	for r := 0; r < runs; r++ {
		path, err := sp.Path("sortrun")
		if err != nil {
			removeAll(paths[:r])
			return false
		}
		paths[r] = path
		w, err := store.Create(path, "sortrun", []store.ColSpec{{Name: "i", Kind: store.KInt}})
		if err != nil {
			removeAll(paths[:r])
			return false
		}
		run := idx[r*size : min((r+1)*size, n)]
		ok := true
		for lo := 0; lo < len(run); lo += MorselSize {
			hi := min(lo+MorselSize, len(run))
			block = block[:0]
			for _, v := range run[lo:hi] {
				block = append(block, int64(v))
			}
			if err := w.Append(hi-lo, []store.ColData{{I: block}}); err != nil {
				ok = false
				break
			}
		}
		if err := w.Close(); err != nil {
			ok = false
		}
		if !ok {
			removeAll(paths[:r+1])
			return false
		}
		spilled += w.BytesWritten()
	}
	c.NoteSpill(spilled, int64(runs))

	// Phase 2: k-way merge from disk into idx. idx is free to
	// overwrite — the runs live on disk now.
	type runCur struct {
		reader *store.Reader
		cur    *store.Cursor
		block  []int64
		pos    int
		done   bool
	}
	curs := make([]runCur, runs)
	openOK := true
	for r := 0; r < runs && openOK; r++ {
		rd, err := store.Open(paths[r])
		if err != nil {
			openOK = false
			break
		}
		curs[r].reader = rd
		curs[r].cur = store.NewCursor(c, rd, nil)
	}
	closeAll := func() {
		for r := range curs {
			if curs[r].cur != nil {
				curs[r].cur.Close()
			}
			if curs[r].reader != nil {
				curs[r].reader.Close()
			}
		}
		removeAll(paths)
	}
	advance := func(r *runCur) bool {
		r.pos++
		if r.pos < len(r.block) {
			return true
		}
		cols, cn, err := r.cur.Next(MorselSize)
		if err != nil || cn == 0 {
			r.done = true
			r.block = nil
			return err == nil
		}
		r.block, r.pos = cols[0].I, 0
		return true
	}
	ioOK := openOK
	if ioOK {
		for r := range curs {
			curs[r].pos = -1
			if !advance(&curs[r]) {
				ioOK = false
				break
			}
		}
	}
	if ioOK {
		for k := 0; k < n; k++ {
			best := -1
			var bestV int
			for r := range curs {
				if curs[r].done {
					continue
				}
				v := int(curs[r].block[curs[r].pos])
				if best < 0 || compare(v, bestV) < 0 {
					best, bestV = r, v
				}
			}
			if best < 0 {
				ioOK = false
				break
			}
			idx[k] = bestV
			if !advance(&curs[best]) {
				ioOK = false
				break
			}
		}
	}
	closeAll()
	if !ioOK {
		// The runs in idx may be partially overwritten and the disk
		// copies are unreadable: recompute the permutation serially.
		// Only broken I/O on a file this process just wrote lands here.
		for k := range idx {
			idx[k] = k
		}
		sortRows(idx, compare)
	}
	return true
}

func removeAll(paths []string) {
	for _, p := range paths {
		if p != "" {
			os.Remove(p)
		}
	}
}

func intSizeOf() int {
	const s = 32 << (^uint(0) >> 63)
	return s / 8
}
