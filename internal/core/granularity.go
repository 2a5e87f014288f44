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

// nodeSpan is one node's feature vector resolved to its device offset.
type nodeSpan struct {
	off int64
	pos int32
}

// joinGap is the widest run of unneeded bytes a joint read may carry to
// reach its next node; the gap is read and dropped. A read costs more
// than the bytes it moves, so two nearby misses are cheaper as one read
// (the trade §4.4 already makes for redundant head/tail bytes) while the
// gap stays below every backend's break-even:
//
//   - sim: two reads cost more than one read carrying the gap while the
//     gap is under ReadLatency × per-channel bandwidth, 90 µs × 65 MB/s
//     ≈ 5.9 KB;
//   - file: a pread costs ≈ 2.5 µs, copying and CRC-ing a KB ≈ 0.1–0.2 µs;
//   - a real SSD breaks even far above both.
//
// 4 KiB is the largest power of two below all three. It is not a knob: a
// wider gap cuts file reads further but makes sim epochs slower.
const joinGap = 4 << 10

// AddrPlanner is the read planner: it turns the feature vectors a batch
// must load into backend reads through a layout.Addresser, so it plans
// the same way over every placement. It holds per-batch scratch so a
// steady-state caller plans without allocating; one planner per
// extractor, not safe for concurrent use.
type AddrPlanner struct {
	spans []nodeSpan
	// nodes backs every op's Nodes in the last plan, so a plan's node
	// lists stay valid until the planner plans again.
	nodes []ReadNode
}

// PlanInto turns the set of feature vectors to load into a list of
// sector-aligned direct reads, implementing the paper's access-granularity
// handling (§4.4):
//
//   - when the feature size is a multiple of the sector, each node is one
//     exact read;
//   - smaller or unaligned features are read with redundant head/tail
//     bytes, and a node whose aligned window starts at most joinGap bytes
//     past the current read joins it (bounded by maxRead) to exploit
//     spatial locality; the bytes between are read and dropped.
//
// Every node is resolved through addr and the spans are sorted by device
// offset before coalescing, so on a packed layout nodes that were traced
// together collapse into a few large sequential reads.
// nodes[i] is the node ID at batch position positions[i]; neither slice
// is modified. The plan is appended to dst, reusing dst's backing array:
// pass the previous batch's plan resliced to length zero, or nil for a
// fresh plan. Every op's Nodes is a capped slice of the planner's scratch,
// valid until its next plan. The error is always nil; callers that take
// two results keep compiling.
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
	for i, pos := range positions {
		ap.spans = append(ap.spans, nodeSpan{off: addr.NodeOffset(nodes[i]), pos: pos})
	}
	slices.SortFunc(ap.spans, func(a, b nodeSpan) int { return cmp.Compare(a.off, b.off) })

	// One ReadNode per node, in a backing array that does not move while
	// the loop hands out slices of it.
	ap.nodes = slices.Grow(ap.nodes[:0], len(nodes))
	ss := int64(sector)
	plan := dst
	first := len(plan) // plan[first:] are this call's ops
	lo := 0            // ap.nodes[lo:] are the current op's nodes
	for _, sp := range ap.spans {
		start := sp.off
		end := start + int64(featBytes)
		aStart := start / ss * ss
		aEnd := (end + ss - 1) / ss * ss
		// Extend the current op if this node's window starts within
		// joinGap of its end and the combined op stays within maxRead.
		if len(plan) > first {
			cur := &plan[len(plan)-1]
			curEnd := cur.DevOff + int64(cur.Len)
			if aStart-curEnd <= joinGap && aEnd-cur.DevOff <= int64(maxRead) {
				if aEnd > curEnd {
					cur.Len = int(aEnd - cur.DevOff)
				}
				ap.nodes = append(ap.nodes, ReadNode{Pos: sp.pos, BufOff: int(start - cur.DevOff)})
				cur.Nodes = ap.nodes[lo:len(ap.nodes):len(ap.nodes)]
				continue
			}
		}
		lo = len(ap.nodes)
		ap.nodes = append(ap.nodes, ReadNode{Pos: sp.pos, BufOff: int(start - aStart)})
		plan = append(plan, ReadOp{DevOff: aStart, Len: int(aEnd - aStart), Nodes: ap.nodes[lo:len(ap.nodes):len(ap.nodes)]})
	}
	return plan, nil
}

// exactInto is the buffered-I/O fallback of §4.4: one exact-size read per
// node at its offset, in the order given — no alignment redundancy and no
// joint extraction. Appends into dst like PlanInto.
func (ap *AddrPlanner) exactInto(dst []ReadOp, addr layout.Addresser, nodes []int64, positions []int32) []ReadOp {
	if len(nodes) != len(positions) {
		panic(fmt.Sprintf("core: %d nodes vs %d positions", len(nodes), len(positions)))
	}
	featBytes := addr.FeatBytes()
	ap.nodes = slices.Grow(ap.nodes[:0], len(nodes))
	for i, v := range nodes {
		ap.nodes = append(ap.nodes, ReadNode{Pos: positions[i]})
		dst = append(dst, ReadOp{DevOff: addr.NodeOffset(v), Len: featBytes, Nodes: ap.nodes[i:len(ap.nodes):len(ap.nodes)]})
	}
	return dst
}

// BuildReadPlanInto is PlanInto over a dense strided feature table at
// featuresOff, for callers that hold the table's geometry rather than an
// addresser. The planner scratch is pooled; the plan's node lists are
// handed to the caller rather than left in the pool, so each call
// allocates them once.
func BuildReadPlanInto(dst []ReadOp, featuresOff int64, featBytes, sector, maxRead int, nodes []int64, positions []int32) []ReadOp {
	sp := stridedPlannerPool.Get().(*stridedPlanner)
	sp.addr = layout.Strided{Base: featuresOff, Feat: featBytes}
	plan, _ := sp.ap.PlanInto(dst, &sp.addr, sector, maxRead, nodes, positions)
	// The plan keeps the node array: whoever draws this planner from the
	// pool next must not overwrite a plan its caller still reads.
	sp.ap.nodes = nil
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

// PlanBytes sums the bytes a plan reads (including redundant alignment
// bytes), for I/O accounting.
func PlanBytes(plan []ReadOp) int64 {
	var n int64
	for _, op := range plan {
		n += int64(op.Len)
	}
	return n
}
