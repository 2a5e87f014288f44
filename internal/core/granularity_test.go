package core

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"gnndrive/internal/hostmem"
	"gnndrive/internal/layout"
)

// planStrided runs the one planner over a dense strided table at
// featuresOff — what every strided dataset's extract path does.
func planStrided(t testing.TB, featuresOff int64, featBytes, sector, maxRead int, nodes []int64, positions []int32) []ReadOp {
	t.Helper()
	var ap AddrPlanner
	plan, err := ap.PlanInto(nil, layout.Strided{Base: featuresOff, Feat: featBytes}, sector, maxRead, nodes, positions)
	if err != nil {
		t.Fatalf("PlanInto over Strided: %v", err)
	}
	return plan
}

// randomNodeSet draws n distinct node IDs below limit from an LCG stream,
// paired with positions 0..n-1, and returns the advanced stream state.
func randomNodeSet(rng uint64, n int, limit int64) (uint64, []int64, []int32) {
	seen := map[int64]bool{}
	var nodes []int64
	var positions []int32
	for len(nodes) < n {
		rng = rng*6364136223846793005 + 1442695040888963407
		v := int64(rng % uint64(limit))
		if !seen[v] {
			seen[v] = true
			positions = append(positions, int32(len(nodes)))
			nodes = append(nodes, v)
		}
	}
	return rng, nodes, positions
}

func TestPlanAlignedFeatureOnePerNode(t *testing.T) {
	// dim 128 -> 512 B: exactly one sector per node.
	plan := planStrided(t, 0, 512, 512, 512, []int64{5, 1, 9}, []int32{0, 1, 2})
	if len(plan) != 3 {
		t.Fatalf("%d ops, want 3 (maxRead forbids joining)", len(plan))
	}
	for _, op := range plan {
		if op.Len != 512 || op.DevOff%512 != 0 {
			t.Fatalf("op %+v", op)
		}
		if len(op.Nodes) != 1 || op.Nodes[0].BufOff != 0 {
			t.Fatalf("op nodes %+v", op.Nodes)
		}
	}
	// Sorted by node: first op must be node 1 (position 1).
	if plan[0].DevOff != 512 || plan[0].Nodes[0].Pos != 1 {
		t.Fatalf("plan not sorted by node: %+v", plan)
	}
}

func TestPlanJointExtractionSmallDim(t *testing.T) {
	// dim 32 -> 128 B features: 4 per sector. Adjacent nodes 8..11 share
	// one sector and must be joined into one read.
	plan := planStrided(t, 0, 128, 512, 4096, []int64{8, 9, 10, 11}, []int32{0, 1, 2, 3})
	if len(plan) != 1 {
		t.Fatalf("%d ops, want 1 joint read", len(plan))
	}
	op := plan[0]
	if op.DevOff != 1024 || op.Len != 512 {
		t.Fatalf("op %+v", op)
	}
	for i, rn := range op.Nodes {
		if rn.BufOff != i*128 {
			t.Fatalf("node %d BufOff %d", i, rn.BufOff)
		}
	}
}

func TestPlanUnalignedDimReadsRedundantTail(t *testing.T) {
	// dim 129 -> 516 B: every node needs 2 sectors with redundancy.
	plan := planStrided(t, 0, 516, 512, 1024, []int64{3}, []int32{0})
	if len(plan) != 1 {
		t.Fatalf("%d ops", len(plan))
	}
	op := plan[0]
	start := int64(3 * 516)
	if op.DevOff > start || op.DevOff+int64(op.Len) < start+516 {
		t.Fatalf("op [%d,%d) does not cover feature [%d,%d)", op.DevOff, op.DevOff+int64(op.Len), start, start+516)
	}
	if op.DevOff%512 != 0 || op.Len%512 != 0 {
		t.Fatalf("unaligned op %+v", op)
	}
	if op.Nodes[0].BufOff != int(start-op.DevOff) {
		t.Fatalf("BufOff %d", op.Nodes[0].BufOff)
	}
}

func TestPlanMaxReadSplits(t *testing.T) {
	// 16 consecutive 128 B features = 2048 B, but maxRead 1024 forces at
	// least 2 ops.
	nodes := make([]int64, 16)
	pos := make([]int32, 16)
	for i := range nodes {
		nodes[i] = int64(i)
		pos[i] = int32(i)
	}
	plan := planStrided(t, 0, 128, 512, 1024, nodes, pos)
	if len(plan) < 2 {
		t.Fatalf("%d ops, maxRead not enforced", len(plan))
	}
	for _, op := range plan {
		if op.Len > 1024 {
			t.Fatalf("op len %d > maxRead", op.Len)
		}
	}
}

func TestPlanEmpty(t *testing.T) {
	if plan := planStrided(t, 0, 512, 512, 512, nil, nil); plan != nil {
		t.Fatalf("empty plan %v", plan)
	}
}

// TestPlannerCoverageTable drives the one planner over every layout ×
// access mode the extractor uses and asserts the properties each plan
// must have: every node is served exactly once, at a BufOff where its
// whole (possibly segment-split) vector lies inside the read; joint-read
// modes emit sector-aligned ops sorted by device offset and bounded by
// maxRead; exact mode emits one exact-size read per node in the order
// given.
func TestPlannerCoverageTable(t *testing.T) {
	const numNodes = int64(3000)
	packed := func(t *testing.T, featBytes int) layout.Addresser {
		tr := layout.NewTrace()
		rng := uint64(featBytes)
		for b := 0; b < 4; b++ {
			var batch []int64
			rng, batch, _ = randomNodeSet(rng, 64, numNodes)
			tr.AddBatch(batch)
		}
		p, err := layout.NewPacked(512*9, featBytes, numNodes, tr, layout.PackOptions{SegmentBytes: 4096})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	strided := func(_ *testing.T, featBytes int) layout.Addresser {
		return layout.Strided{Base: 512 * 7, Feat: featBytes, Nodes: numNodes}
	}
	layouts := []struct {
		name string
		make func(*testing.T, int) layout.Addresser
	}{{"Strided", strided}, {"Packed", packed}}
	modes := []struct {
		name            string
		sector, maxRead int // 0, 0 = exact
	}{{"sector", 512, 8192}, {"gds4k", gdsGranularity, 2 * gdsGranularity}, {"exact", 0, 0}}

	for _, l := range layouts {
		for _, m := range modes {
			for _, featBytes := range []int{64, 400, 512, 516, 2048} {
				t.Run(fmt.Sprintf("%s/%s/feat%d", l.name, m.name, featBytes), func(t *testing.T) {
					addr := l.make(t, featBytes)
					var ap AddrPlanner
					var plan []ReadOp
					rng := uint64(featBytes)
					for round := 0; round < 40; round++ {
						var nodes []int64
						var positions []int32
						rng, nodes, positions = randomNodeSet(rng, round+1, numNodes)
						var err error
						if m.sector == 0 {
							plan, err = ap.exactInto(plan[:0], addr, nodes, positions)
						} else {
							plan, err = ap.PlanInto(plan[:0], addr, m.sector, m.maxRead, nodes, positions)
						}
						if err != nil {
							t.Fatal(err)
						}
						checkPlan(t, plan, addr, m.sector, m.maxRead, nodes, positions)
					}
				})
			}
		}
	}
}

// checkPlan asserts TestPlannerCoverageTable's properties on one plan.
// sector 0 means exact mode.
func checkPlan(t *testing.T, plan []ReadOp, addr layout.Addresser, sector, maxRead int, nodes []int64, positions []int32) {
	t.Helper()
	featBytes := addr.FeatBytes()
	nodeAt := map[int32]int64{}
	for i, p := range positions {
		nodeAt[p] = nodes[i]
	}
	if sector == 0 {
		if len(plan) != len(nodes) {
			t.Fatalf("exact plan has %d ops for %d nodes", len(plan), len(nodes))
		}
		for i, op := range plan {
			if op.Len != featBytes || len(op.Nodes) != 1 || op.Nodes[0] != (ReadNode{Pos: positions[i]}) {
				t.Fatalf("exact op %d = %+v, want one %d B read for position %d", i, op, featBytes, positions[i])
			}
		}
	} else if !sort.SliceIsSorted(plan, func(i, j int) bool { return plan[i].DevOff < plan[j].DevOff }) {
		t.Fatalf("plan not sorted by device offset: %+v", plan)
	}
	seen := map[int32]bool{}
	for _, op := range plan {
		if sector != 0 && (op.DevOff%int64(sector) != 0 || op.Len%sector != 0 || op.Len == 0 || op.Len > maxRead) {
			t.Fatalf("op %+v: want non-empty, %d-aligned, at most %d B", op, sector, maxRead)
		}
		for _, rn := range op.Nodes {
			if seen[rn.Pos] {
				t.Fatalf("position %d served twice", rn.Pos)
			}
			seen[rn.Pos] = true
			var scratch [4]layout.Extent
			start, spanLen, _, err := layout.NodeSpan(addr, nodeAt[rn.Pos], scratch[:])
			if err != nil || spanLen != featBytes {
				t.Fatalf("NodeSpan(%d) = %d B, %v", nodeAt[rn.Pos], spanLen, err)
			}
			if op.DevOff+int64(rn.BufOff) != start || rn.BufOff+featBytes > op.Len {
				t.Fatalf("node %d at %d not inside op %+v at BufOff %d", nodeAt[rn.Pos], start, op, rn.BufOff)
			}
		}
	}
	if len(seen) != len(nodes) {
		t.Fatalf("plan serves %d of %d nodes", len(seen), len(nodes))
	}
	if PlanBytes(plan) < int64(len(nodes)*featBytes) {
		t.Fatalf("PlanBytes %d below the %d B payload", PlanBytes(plan), len(nodes)*featBytes)
	}
}

func TestStagingAcquireReleaseCycle(t *testing.T) {
	b := hostmem.NewBudget(1 << 20)
	s, err := NewStaging(b, 4, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if b.Pinned() != 4096 {
		t.Fatalf("pinned %d", b.Pinned())
	}
	acquire := func() int32 {
		slot, err := s.AcquireCtx(context.Background())
		if err != nil {
			t.Error(err)
		}
		return slot
	}
	slots := []int32{acquire(), acquire(), acquire(), acquire()}
	if s.FreeSlots() != 0 {
		t.Fatal("pool should be empty")
	}
	if _, ok := s.TryAcquire(); ok {
		t.Fatal("TryAcquire on empty pool")
	}
	// Buffers must be disjoint.
	s.Buf(slots[0])[0] = 42
	if s.Buf(slots[1])[0] != 0 {
		t.Fatal("slot buffers overlap")
	}
	done := make(chan int32)
	go func() { done <- acquire() }()
	s.Release(slots[2])
	if got := <-done; got != slots[2] {
		t.Fatalf("blocked AcquireCtx got %d want %d", got, slots[2])
	}
}

func TestStagingOOM(t *testing.T) {
	b := hostmem.NewBudget(1000)
	if _, err := NewStaging(b, 4, 1024); err == nil {
		t.Fatal("expected OOM")
	}
	if b.Pinned() != 0 {
		t.Fatal("failed pin must not leak")
	}
}

func TestStagingCloseUnpins(t *testing.T) {
	b := hostmem.NewBudget(1 << 20)
	s, _ := NewStaging(b, 2, 512)
	s.Close()
	s.Close() // idempotent
	if b.Pinned() != 0 {
		t.Fatalf("pinned %d after close", b.Pinned())
	}
}

func TestStagingBadReleasePanics(t *testing.T) {
	b := hostmem.NewBudget(1 << 20)
	s, _ := NewStaging(b, 2, 512)
	defer s.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Release(9)
}

func TestBuildReadPlanIntoDirtyScratchMatchesFresh(t *testing.T) {
	// The extractor reuses one plan slice (and the recycled ReadOps' Nodes
	// slices) across batches; plans built into dirty scratch must be
	// identical to freshly allocated ones. The scratch side goes through
	// the BuildReadPlanInto delegation, so this also pins it to the
	// planner it delegates to.
	f := func(seed uint64, nRaw uint8, featRaw uint8, maxRaw uint8) bool {
		n := int(nRaw%100) + 1
		featBytes := int(featRaw)*3 + 1
		maxRead := (int(maxRaw%8) + 1) * 4096
		rng := seed
		var scratch []ReadOp
		for round := 0; round < 3; round++ {
			var nodes []int64
			var positions []int32
			rng, nodes, positions = randomNodeSet(rng, n, 5000)
			fresh := planStrided(t, 0, featBytes, 512, maxRead, nodes, positions)
			scratch = BuildReadPlanInto(scratch[:0], 0, featBytes, 512, maxRead, nodes, positions)
			if len(scratch) != len(fresh) {
				return false
			}
			for i := range fresh {
				a, b := fresh[i], scratch[i]
				if a.DevOff != b.DevOff || a.Len != b.Len || len(a.Nodes) != len(b.Nodes) {
					return false
				}
				for j := range a.Nodes {
					if a.Nodes[j] != b.Nodes[j] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// referenceStridedPlan is the arithmetic strided planner the tree shipped
// before the addresser seam: node*featBytes offsets, sorted by node ID,
// coalesced in place. It stays here as the independent oracle for
// TestAddrPlannerMatchesBuildReadPlanOnStrided. Reorders nodes and
// positions.
func referenceStridedPlan(featuresOff int64, featBytes, sector, maxRead int, nodes []int64, positions []int32) []ReadOp {
	if len(nodes) == 0 {
		return nil
	}
	if sector <= 0 {
		sector = 512
	}
	if maxRead < sector {
		maxRead = sector
	}
	if featBytes > maxRead {
		maxRead = (featBytes + sector - 1) / sector * sector * 2
	}
	sort.Sort(&nodePosSorter{nodes: nodes, positions: positions})

	ss := int64(sector)
	var plan []ReadOp
	for i, v := range nodes {
		start := featuresOff + v*int64(featBytes)
		end := start + int64(featBytes)
		aStart := start / ss * ss
		aEnd := (end + ss - 1) / ss * ss
		if len(plan) > 0 {
			cur := &plan[len(plan)-1]
			curEnd := cur.DevOff + int64(cur.Len)
			if aStart <= curEnd && aEnd-cur.DevOff <= int64(maxRead) {
				if aEnd > curEnd {
					cur.Len = int(aEnd - cur.DevOff)
				}
				cur.Nodes = append(cur.Nodes, ReadNode{Pos: positions[i], BufOff: int(start - cur.DevOff)})
				continue
			}
		}
		plan = append(plan, ReadOp{DevOff: aStart, Len: int(aEnd - aStart),
			Nodes: []ReadNode{{Pos: positions[i], BufOff: int(start - aStart)}}})
	}
	return plan
}

type nodePosSorter struct {
	nodes     []int64
	positions []int32
}

func (s *nodePosSorter) Len() int           { return len(s.nodes) }
func (s *nodePosSorter) Less(i, j int) bool { return s.nodes[i] < s.nodes[j] }
func (s *nodePosSorter) Swap(i, j int) {
	s.nodes[i], s.nodes[j] = s.nodes[j], s.nodes[i]
	s.positions[i], s.positions[j] = s.positions[j], s.positions[i]
}

// TestAddrPlannerMatchesBuildReadPlanOnStrided pins the planner to an
// independent oracle: over the strided layout it must emit op-for-op the
// plan the pre-seam arithmetic planner emitted, which is what keeps
// strided training bit-identical now that every layout takes one path.
func TestAddrPlannerMatchesBuildReadPlanOnStrided(t *testing.T) {
	f := func(seed uint64, dimSel uint8, count uint8) bool {
		dims := []int{16, 32, 127, 128, 129, 256, 512}
		featBytes := dims[int(dimSel)%len(dims)] * 4
		_, nodes, positions := randomNodeSet(seed, int(count)%40+1, 5000)
		const featOff = 512 * 7
		want := referenceStridedPlan(featOff, featBytes, 512, 8192,
			append([]int64(nil), nodes...), append([]int32(nil), positions...))
		got := planStrided(t, featOff, featBytes, 512, 8192, nodes, positions)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].DevOff != want[i].DevOff || got[i].Len != want[i].Len ||
				len(got[i].Nodes) != len(want[i].Nodes) {
				return false
			}
			for j := range got[i].Nodes {
				if got[i].Nodes[j] != want[i].Nodes[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
