package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"gnndrive/internal/layout"
)

// ReadNode locates one node's feature vector inside a planned read.
type ReadNode struct {
	// Pos is the node's position in the mini-batch node list.
	Pos int32
	// BufOff is the byte offset of the feature vector within the read
	// buffer.
	BufOff int
}

// ReadOp is one sector-aligned direct-I/O read serving one or more nodes.
type ReadOp struct {
	DevOff int64
	Len    int
	Nodes  []ReadNode
}

// nodeSpan is one node's feature vector resolved to a single contiguous
// device span (adjacent extents merged by layout.NodeSpan).
type nodeSpan struct {
	off int64
	pos int32
}

// AddrPlanner is the read planner: it turns the feature vectors a batch
// must load into backend reads through a layout.Addresser, so it plans
// the same way over every placement. It holds per-batch scratch so a
// steady-state caller plans without allocating; one planner per
// extractor, not safe for concurrent use.
type AddrPlanner struct {
	spans []nodeSpan
	exts  [4]layout.Extent
}

// PlanInto turns the set of feature vectors to load into a list of
// sector-aligned direct reads, implementing the paper's access-granularity
// handling (§4.4):
//
//   - when the feature size is a multiple of the sector, each node is one
//     exact read;
//   - smaller or unaligned features are read with redundant head/tail
//     bytes, and nodes whose aligned windows touch are combined into one
//     joint read (bounded by maxRead) to exploit spatial locality.
//
// Every node is resolved through addr and the spans are sorted by device
// offset before coalescing, so on a packed layout nodes that were traced
// into the same segment collapse into a few large sequential reads.
// nodes[i] is the node ID at batch position positions[i]; neither slice
// is modified. The plan is appended to dst, reusing dst's backing array
// and each recycled op's Nodes slice: pass the previous batch's plan
// resliced to length zero, or nil for a fresh plan. Nodes whose extents
// are not physically adjacent are an error: the extract path marks a node
// valid when its read completes, which requires one read to carry the
// whole vector.
func (ap *AddrPlanner) PlanInto(dst []ReadOp, addr layout.Addresser, sector, maxRead int, nodes []int64, positions []int32) ([]ReadOp, error) {
	if len(nodes) != len(positions) {
		panic(fmt.Sprintf("core: %d nodes vs %d positions", len(nodes), len(positions)))
	}
	if len(nodes) == 0 {
		return dst, nil
	}
	featBytes := addr.FeatBytes()
	if sector <= 0 {
		sector = 512
	}
	if maxRead < sector {
		maxRead = sector
	}
	if featBytes > maxRead {
		maxRead = (featBytes + sector - 1) / sector * sector * 2
	}

	ap.spans = ap.spans[:0]
	for i, v := range nodes {
		off, _, _, err := layout.NodeSpan(addr, v, ap.exts[:])
		if err != nil {
			return dst, err
		}
		ap.spans = append(ap.spans, nodeSpan{off: off, pos: positions[i]})
	}
	slices.SortFunc(ap.spans, func(a, b nodeSpan) int { return cmp.Compare(a.off, b.off) })

	ss := int64(sector)
	plan := dst
	have := false // plan has a current op to extend
	for _, sp := range ap.spans {
		start := sp.off
		end := start + int64(featBytes)
		aStart := start / ss * ss
		aEnd := (end + ss - 1) / ss * ss
		// Extend the current op if this node's window overlaps or abuts
		// it and the combined op stays within maxRead.
		if have {
			cur := &plan[len(plan)-1]
			curEnd := cur.DevOff + int64(cur.Len)
			if aStart <= curEnd && aEnd-cur.DevOff <= int64(maxRead) {
				if aEnd > curEnd {
					cur.Len = int(aEnd - cur.DevOff)
				}
				cur.Nodes = append(cur.Nodes, ReadNode{Pos: sp.pos, BufOff: int(start - cur.DevOff)})
				continue
			}
		}
		plan = appendOp(plan, aStart, int(aEnd-aStart))
		cur := &plan[len(plan)-1]
		cur.Nodes = append(cur.Nodes, ReadNode{Pos: sp.pos, BufOff: int(start - aStart)})
		have = true
	}
	return plan, nil
}

// exactInto is the buffered-I/O fallback of §4.4: one exact-size read per
// node at its resolved span, in the order given — no alignment redundancy
// and no joint extraction. Appends into dst like PlanInto.
func (ap *AddrPlanner) exactInto(dst []ReadOp, addr layout.Addresser, nodes []int64, positions []int32) ([]ReadOp, error) {
	if len(nodes) != len(positions) {
		panic(fmt.Sprintf("core: %d nodes vs %d positions", len(nodes), len(positions)))
	}
	featBytes := addr.FeatBytes()
	for i, v := range nodes {
		off, _, _, err := layout.NodeSpan(addr, v, ap.exts[:])
		if err != nil {
			return dst, err
		}
		dst = appendOp(dst, off, featBytes)
		op := &dst[len(dst)-1]
		op.Nodes = append(op.Nodes, ReadNode{Pos: positions[i], BufOff: 0})
	}
	return dst, nil
}

// BuildReadPlanInto is PlanInto over a dense strided feature table at
// featuresOff, for callers that hold the table's geometry rather than an
// addresser. The planner scratch is pooled, so a per-batch caller plans
// with zero steady-state allocations.
func BuildReadPlanInto(dst []ReadOp, featuresOff int64, featBytes, sector, maxRead int, nodes []int64, positions []int32) []ReadOp {
	sp := stridedPlannerPool.Get().(*stridedPlanner)
	sp.addr = layout.Strided{Base: featuresOff, Feat: featBytes}
	// A strided node is always one whole extent, so PlanInto cannot fail.
	plan, _ := sp.ap.PlanInto(dst, &sp.addr, sector, maxRead, nodes, positions)
	stridedPlannerPool.Put(sp)
	return plan
}

// stridedPlanner is BuildReadPlanInto's pooled scratch. The addresser
// lives beside the planner so handing &addr to PlanInto boxes nothing.
type stridedPlanner struct {
	ap   AddrPlanner
	addr layout.Strided
}

var stridedPlannerPool = sync.Pool{New: func() any { return new(stridedPlanner) }}

// appendOp extends the plan by one op. When the backing array already has
// room, the recycled element keeps its Nodes capacity from the previous
// batch; only genuine growth allocates.
func appendOp(plan []ReadOp, devOff int64, length int) []ReadOp {
	if len(plan) < cap(plan) {
		plan = plan[:len(plan)+1]
		op := &plan[len(plan)-1]
		op.DevOff = devOff
		op.Len = length
		op.Nodes = op.Nodes[:0]
		return plan
	}
	return append(plan, ReadOp{DevOff: devOff, Len: length})
}

// PlanBytes sums the bytes a plan reads (including redundant alignment
// bytes), for I/O accounting.
func PlanBytes(plan []ReadOp) int64 {
	var n int64
	for _, op := range plan {
		n += int64(op.Len)
	}
	return n
}
