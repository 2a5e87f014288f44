// Package core implements GNNDrive itself (§4): the four-stage
// sample → extract → train → release pipeline decoupled by bounded
// queues, the feature-buffer manager with its mapping table, reverse
// mapping, and LRU standby list, the bounded host staging buffer,
// asynchronous two-phase feature extraction over the io_uring-style ring,
// mini-batch reordering, and multi-device data parallelism.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ErrBufferTooSmall is returned when a single mini-batch needs more
// feature-buffer slots than exist; the deadlock guard of §4.2 (capacity
// must cover Ne x Mb) is enforced at construction instead of discovered
// as a hang.
var ErrBufferTooSmall = errors.New("core: feature buffer smaller than one mini-batch")

// reserveTimeout bounds how long a Reserve may wait for released slots
// before reporting a configuration error; generous because it only fires
// on misconfiguration.
const reserveTimeout = 30 * time.Second

// mapEntry is one node's row in the mapping table (Fig. 6): the buffer
// slot holding (or receiving) its feature vector, a reference count, and
// a valid bit. Slot -1 means "not applicable".
//
// Concurrency: the refcount doubles as the entry's ownership word, so the
// whole reserve/release hot path runs without a mutex:
//
//   - ref ≥ 1: the mapping is pinned. Extractors sharing the node CAS the
//     count up (tryAttach); slot cannot change while anyone holds a pin.
//   - ref == 0 and valid: retired. A reservation protects it back with a
//     single CAS 0→1; the losing racer re-reads and retries.
//   - ref == -1: a transient exclusive claim. Installing a miss, evicting
//     a retired node, and unmapping an aborted load all CAS 0→-1 first,
//     mutate slot/valid, then publish the final refcount. Claims are a
//     handful of instructions; racers spin past them.
//
// Every CAS that wins re-validates slot (and valid) afterwards: observing
// the refcount value a claimant published happens-after the claimant's
// slot/valid writes, so a reservation that raced an eviction sees slot=-1
// and backs off instead of aliasing a recycled slot. The valid bit is
// published seqlock-style: MarkValid stores it under the stripe lock (for
// the condition-variable handshake only) but every reader loads it
// lock-free; the atomic store/load pair carries the happens-before edge
// from the extractor's feature writes to the consumer's reads.
type mapEntry struct {
	slot  atomic.Int32
	ref   atomic.Int32
	valid atomic.Bool
}

// fbStripe carries the per-stripe condition variable backing WaitValid.
// The mutex exists solely for the MarkValid/WaitValid handshake — the
// mapping table itself is maintained with atomics, never under stripe
// locks. Padded so neighboring stripes do not share a cache line.
type fbStripe struct {
	mu   sync.Mutex
	cond *sync.Cond
	_    [40]byte
}

// FeatureBuffer is GNNDrive's device-side feature store plus its host-side
// metadata. Mapping-table operations take only the owning node's stripe
// lock (or no lock at all for refcount pins of already-referenced nodes);
// the standby free-list and reverse mapping sit behind a single short
// mutex that Reserve and Release acquire once per batch, not per slot.
// Feature rows themselves are written and read lock-free because a slot
// is never reassigned while referenced.
type FeatureBuffer struct {
	dim   int
	slots int

	stripes    []fbStripe
	stripeMask uint64

	entries []mapEntry
	data    []float32 // slots x dim backing store

	// sb guards the standby list and the slot→node reverse mapping.
	// Lock order: a stripe lock may not be acquired while holding sb.mu
	// is allowed (sb→stripe); the reverse (stripe→sb) is forbidden.
	sb struct {
		mu      sync.Mutex
		cond    *sync.Cond
		list    standbyList
		reverse []int64 // slot -> node, -1 when empty
	}

	// stats
	reuseHits    atomic.Int64
	loads        atomic.Int64
	sharedWaits  atomic.Int64
	slotRecycles atomic.Int64
	standbyWaits atomic.Int64
}

// NewFeatureBuffer creates a buffer of the given slot count for a graph of
// numNodes nodes.
func NewFeatureBuffer(numNodes int64, dim, slots int) *FeatureBuffer {
	if slots < 1 {
		panic("core: feature buffer needs at least one slot")
	}
	fb := &FeatureBuffer{
		dim:     dim,
		slots:   slots,
		entries: make([]mapEntry, numNodes),
		data:    make([]float32, int64(slots)*int64(dim)),
	}
	fb.stripes = make([]fbStripe, stripeCount())
	fb.stripeMask = uint64(len(fb.stripes) - 1)
	for i := range fb.stripes {
		fb.stripes[i].cond = sync.NewCond(&fb.stripes[i].mu)
	}
	for i := range fb.entries {
		fb.entries[i].slot.Store(-1)
	}
	fb.sb.cond = sync.NewCond(&fb.sb.mu)
	fb.sb.reverse = make([]int64, slots)
	for i := range fb.sb.reverse {
		fb.sb.reverse[i] = -1
	}
	fb.sb.list.init(slots)
	// All slots start free: push them in index order.
	for s := 0; s < slots; s++ {
		fb.sb.list.pushTail(int32(s))
	}
	return fb
}

// stripeCount picks a power-of-two stripe count wide enough that the
// configured parallelism rarely collides.
func stripeCount() int {
	n := runtime.GOMAXPROCS(0) * 8
	p := 16
	for p < n && p < 256 {
		p <<= 1
	}
	return p
}

// stripeOf returns the lock stripe owning a node's mapping entry.
// Fibonacci hashing spreads both dense and strided node-ID patterns.
func (fb *FeatureBuffer) stripeOf(node int64) *fbStripe {
	h := uint64(node) * 0x9E3779B97F4A7C15
	return &fb.stripes[(h>>32)&fb.stripeMask]
}

// Slots returns the buffer capacity in feature vectors.
func (fb *FeatureBuffer) Slots() int { return fb.slots }

// Bytes returns the backing-store size (what must fit in device memory,
// or in the host budget for CPU training).
func (fb *FeatureBuffer) Bytes() int64 { return int64(fb.slots) * int64(fb.dim) * 4 }

// SlotData returns the float32 row of a slot. The caller must hold a
// reference to the node mapped there.
func (fb *FeatureBuffer) SlotData(slot int32) []float32 {
	return fb.data[int(slot)*fb.dim : (int(slot)+1)*fb.dim]
}

// Reservation is the outcome of reserving a mini-batch's nodes:
// Alias[i] is the buffer slot of batch node i (the paper's node alias
// list); ToLoad lists the positions in the node list this extractor must
// load itself; Wait lists nodes another extractor is concurrently loading.
type Reservation struct {
	Alias  []int32
	ToLoad []int32
	Wait   []int64

	// batch-scoped scratch, reused through the reservation pool
	missPos  []int32
	missSlot []int32
	spare    []int32

	// per-batch stat deltas, flushed to the shared counters once per
	// reserve so the hot loop never touches a shared cache line
	hits, loads, waits int64
}

// reservationPool recycles Reservation objects (and their slices) so the
// steady-state reserve path allocates nothing.
var reservationPool = sync.Pool{New: func() any { return new(Reservation) }}

func getReservation(n int) *Reservation {
	res := reservationPool.Get().(*Reservation)
	if cap(res.Alias) < n {
		res.Alias = make([]int32, n)
	} else {
		res.Alias = res.Alias[:n]
	}
	res.ToLoad = res.ToLoad[:0]
	res.Wait = res.Wait[:0]
	res.missPos = res.missPos[:0]
	res.missSlot = res.missSlot[:0]
	res.spare = res.spare[:0]
	res.hits, res.loads, res.waits = 0, 0, 0
	return res
}

// PutReservation recycles a reservation obtained from ReserveCtx.
// Callers may only recycle after the batch's references are released and
// no alias is read again; it is never required (unrecycled reservations
// are garbage collected).
func PutReservation(res *Reservation) {
	if res != nil {
		reservationPool.Put(res)
	}
}

// slotNode pairs a slot with the node that owned it when a release
// retired or unmapped it. The pairing lets flushRelease detect that a
// concurrent allocation reassigned the slot in the window between the
// lock-free refcount decrement and the flush, and drop the stale entry
// instead of pushing a live-mapped slot onto the free list.
type slotNode struct {
	slot int32
	node int64
}

// releaseScratch batches a Release's standby-list work so the list mutex
// is taken once per batch. Entries are (slot, node) pairs; flushRelease
// re-validates each pairing under the standby lock before acting.
type releaseScratch struct {
	retire []slotNode // valid slots retiring to the standby tail
	unmap  []slotNode // aborted (invalid) slots returning unmapped
}

var releaseScratchPool = sync.Pool{New: func() any { return new(releaseScratch) }}

func getReleaseScratch() *releaseScratch {
	sc := releaseScratchPool.Get().(*releaseScratch)
	sc.retire = sc.retire[:0]
	sc.unmap = sc.unmap[:0]
	return sc
}

// ReserveCtx implements Algorithm 1's reuse scan and slot allocation for
// the node list of one mini-batch. It increments every node's reference
// count; Release undoes it after training. Blocks while the standby list
// is empty, waiting for the releaser; a cancelled ctx aborts that wait and
// rolls back every reference already taken for this batch, so a torn-down
// extractor leaks no refcounts.
//
// The scan runs in three passes, none of which takes a per-node lock.
// Classification attaches to every already-buffered node — a CAS pin when
// the node is referenced by a concurrent batch, a CAS protect when it is
// retired — and collects the misses. Allocation then takes every missing
// slot in a single standby-list acquisition (blocking there, with nothing
// but the classification pins held, when the list runs dry). Installation
// claims and publishes the new mappings, diverting to the pin/wait path
// any miss a concurrent extractor won in the meantime.
func (fb *FeatureBuffer) ReserveCtx(ctx context.Context, nodes []int64) (*Reservation, error) {
	if len(nodes) > fb.slots {
		return nil, fmt.Errorf("%w: batch of %d nodes, %d slots", ErrBufferTooSmall, len(nodes), fb.slots)
	}
	res := getReservation(len(nodes))
	for i, node := range nodes {
		if !fb.tryAttach(&fb.entries[node], int32(i), node, res) {
			res.missPos = append(res.missPos, int32(i))
		}
	}
	if len(res.missPos) > 0 {
		if err := fb.allocSlots(ctx, nodes, res); err != nil {
			fb.rollbackClassified(nodes, res)
			PutReservation(res)
			return nil, err
		}
		fb.installMisses(nodes, res)
	}
	if res.hits != 0 {
		fb.reuseHits.Add(res.hits)
	}
	if res.loads != 0 {
		fb.loads.Add(res.loads)
	}
	if res.waits != 0 {
		fb.sharedWaits.Add(res.waits)
	}
	return res, nil
}

// tryAttach takes a reference on a node that is already mapped: a CAS pin
// when concurrent batches reference it, a CAS protect when it is retired
// on standby (the slot stays on the list — deletion is lazy; allocation
// skips referenced slots and the next release re-queues them). Returns
// false iff the node is unmapped (a miss). A winning CAS re-validates
// slot: -1 means the race went to an eviction or abort, so the pin is
// undone and classification retries.
func (fb *FeatureBuffer) tryAttach(e *mapEntry, pos int32, node int64, res *Reservation) bool {
	for {
		r := e.ref.Load()
		if r < 0 {
			// Exclusive claim in progress (install/evict/abort): it
			// resolves in a few instructions.
			runtime.Gosched()
			continue
		}
		if r > 0 {
			if !e.ref.CompareAndSwap(r, r+1) {
				continue
			}
			s := e.slot.Load()
			if s < 0 {
				// Pinned on top of a racer that itself lost to an
				// eviction; unwind like it will.
				e.ref.Add(-1)
				continue
			}
			res.Alias[pos] = s
			if e.valid.Load() {
				res.hits++
			} else {
				res.Wait = append(res.Wait, node)
				res.waits++
			}
			return true
		}
		// r == 0: retired (protectable) or unmapped (miss).
		if !e.valid.Load() {
			return false
		}
		if !e.ref.CompareAndSwap(0, 1) {
			continue
		}
		s := e.slot.Load()
		if s < 0 {
			// Lost the retired slot to an eviction after the valid check.
			e.ref.Add(-1)
			continue
		}
		res.Alias[pos] = s
		if e.valid.Load() {
			res.hits++
		} else {
			// The mapping's load aborted between our checks (release of a
			// failed batch); reload into the surviving slot.
			res.ToLoad = append(res.ToLoad, pos)
			res.loads++
		}
		return true
	}
}

// allocSlots pops one standby slot per classified miss in a single
// standby-lock acquisition, evicting whatever retired node each slot
// still maps (deferred invalidation, §4.2) and recording the slot's new
// destination in the reverse mapping. Referenced slots found on the list
// (lazily deleted by a protecting reservation) are skipped, as are slots
// whose reverse mapping went stale (a lock-free unmap whose flush is
// still pending); in both cases the owner's release re-queues them.
// Blocks when the list runs dry; on cancellation or timeout every slot
// already taken is pushed back.
func (fb *FeatureBuffer) allocSlots(ctx context.Context, nodes []int64, res *Reservation) error {
	need := len(res.missPos)
	deadline := time.Now().Add(reserveTimeout)
	sb := &fb.sb
	sb.mu.Lock()
	defer sb.mu.Unlock()
	for len(res.missSlot) < need {
		if sb.list.empty() {
			if err := fb.waitStandbyLocked(ctx, deadline); err != nil {
				for i := len(res.missSlot) - 1; i >= 0; i-- {
					s := res.missSlot[i]
					if sb.list.inList[s] {
						// Defensive: in-flight slots are off-list and
						// verified flushes never re-list them, but a
						// listed slot must not be pushed twice.
						continue
					}
					sb.reverse[s] = -1
					sb.list.pushHead(s)
				}
				res.missSlot = res.missSlot[:0]
				return err
			}
			continue
		}
		s := sb.list.popHead()
		if prev := sb.reverse[s]; prev >= 0 {
			pe := &fb.entries[prev]
			if !pe.ref.CompareAndSwap(0, -1) {
				// The slot retired, went on standby, and was then
				// re-referenced without leaving the list (lazy deletion).
				// Drop it; the owner's release pushes it back.
				continue
			}
			if pe.slot.Load() != s {
				// Stale reverse mapping: the node's release unmapped this
				// slot lock-free and its flush (which clears reverse[s]
				// and re-queues the slot) is still pending, or the node
				// has since been remapped elsewhere. Undo the claim and
				// skip the slot; the pending flush returns it.
				pe.ref.Store(0)
				continue
			}
			pe.slot.Store(-1)
			pe.valid.Store(false)
			pe.ref.Store(0)
			fb.slotRecycles.Add(1)
		}
		sb.reverse[s] = nodes[res.missPos[len(res.missSlot)]]
		res.missSlot = append(res.missSlot, s)
	}
	return nil
}

// waitStandbyLocked blocks on the standby cond until a release pushes a
// slot, ctx is cancelled (paired with Interrupt for prompt wake-up), or
// the deadline passes. Caller holds fb.sb.mu.
func (fb *FeatureBuffer) waitStandbyLocked(ctx context.Context, deadline time.Time) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	fb.standbyWaits.Add(1)
	// Timed wait: cond has no native timeout, so poke the condition from a
	// timer.
	done := make(chan struct{})
	timer := time.AfterFunc(time.Until(deadline), func() {
		fb.sb.mu.Lock()
		fb.sb.cond.Broadcast()
		fb.sb.mu.Unlock()
		close(done)
	})
	fb.sb.cond.Wait()
	timer.Stop()
	select {
	case <-done:
		if fb.sb.list.empty() {
			return fmt.Errorf("%w: waited %v for a standby slot; increase FeatureSlots or reduce extractors", ErrBufferTooSmall, reserveTimeout)
		}
	default:
	}
	return ctx.Err()
}

// installMisses claims each miss node's entry and publishes the allocated
// slot. A miss that a concurrent extractor installed (or installed,
// loaded, and retired) in the window since classification is attached to
// instead, and its unused slot returns to the standby head. A claim that
// finds a surviving mapping (an aborted load whose releaser lost the
// unmap race) adopts the old slot and reloads in place.
func (fb *FeatureBuffer) installMisses(nodes []int64, res *Reservation) {
	for k, pos := range res.missPos {
		node := nodes[pos]
		s := res.missSlot[k]
		e := &fb.entries[node]
		for {
			if fb.tryAttach(e, pos, node, res) {
				res.spare = append(res.spare, s)
				break
			}
			if !e.ref.CompareAndSwap(0, -1) {
				continue
			}
			if old := e.slot.Load(); old >= 0 {
				res.Alias[pos] = old
				if e.valid.Load() {
					res.hits++
				} else {
					res.ToLoad = append(res.ToLoad, pos)
					res.loads++
				}
				e.ref.Store(1)
				res.spare = append(res.spare, s)
			} else {
				e.slot.Store(s)
				e.ref.Store(1)
				res.Alias[pos] = s
				res.ToLoad = append(res.ToLoad, pos)
				res.loads++
			}
			break
		}
	}
	if len(res.spare) > 0 {
		sb := &fb.sb
		sb.mu.Lock()
		for i := len(res.spare) - 1; i >= 0; i-- {
			s := res.spare[i]
			if sb.list.inList[s] {
				// Defensive: a spare is off-list from its popHead and
				// verified flushes never re-list an in-flight slot, but
				// tolerate a listed one rather than corrupt the list.
				continue
			}
			sb.reverse[s] = -1
			sb.list.pushHead(s)
		}
		sb.mu.Unlock()
		sb.cond.Broadcast()
	}
}

// rollbackClassified drops the references classification took (reuse,
// protect, and wait pins) when allocation fails; miss positions never
// took a reference. The reservation is dead afterwards.
func (fb *FeatureBuffer) rollbackClassified(nodes []int64, res *Reservation) {
	sc := getReleaseScratch()
	mi := 0
	for i := range nodes {
		if mi < len(res.missPos) && res.missPos[mi] == int32(i) {
			mi++
			continue
		}
		fb.releaseOne(nodes[i], sc)
	}
	fb.flushRelease(sc)
}

// MarkValid publishes a node's data as extracted (valid bit = 1) and
// wakes extractors waiting on shared nodes.
func (fb *FeatureBuffer) MarkValid(node int64) {
	st := fb.stripeOf(node)
	st.mu.Lock()
	fb.entries[node].valid.Store(true)
	st.mu.Unlock()
	st.cond.Broadcast()
}

// WaitValidCtx blocks until every listed node's valid bit is set — the
// wait-list re-examination at the end of Algorithm 1. It returns ctx.Err()
// when the context is cancelled mid-wait (the loading extractor may have
// failed, so the valid bit would never arrive). Pair with Interrupt for
// prompt wake-up. Already-valid nodes are confirmed with a lock-free
// load; only still-loading nodes park on their stripe's cond.
func (fb *FeatureBuffer) WaitValidCtx(ctx context.Context, nodes []int64) error {
	for _, node := range nodes {
		e := &fb.entries[node]
		if e.valid.Load() {
			continue
		}
		st := fb.stripeOf(node)
		st.mu.Lock()
		for !e.valid.Load() {
			if err := ctx.Err(); err != nil {
				st.mu.Unlock()
				return err
			}
			st.cond.Wait()
		}
		st.mu.Unlock()
	}
	return nil
}

// Interrupt wakes every goroutine blocked in ReserveCtx or WaitValidCtx
// so it can observe a cancelled context.
func (fb *FeatureBuffer) Interrupt() {
	fb.sb.mu.Lock()
	fb.sb.cond.Broadcast()
	fb.sb.mu.Unlock()
	for i := range fb.stripes {
		st := &fb.stripes[i]
		st.mu.Lock()
		st.cond.Broadcast()
		st.mu.Unlock()
	}
}

// Release decrements the nodes' reference counts after training; slots
// whose count reaches zero retire to the standby tail (most-recently
// retired), keeping their data for inter-batch reuse. A node released
// while still invalid (its extraction was aborted) is unmapped entirely:
// its slot returns to standby with no stale reverse mapping, so a later
// reservation of the node loads it fresh. The standby list is touched in
// one batched acquisition at the end.
func (fb *FeatureBuffer) Release(nodes []int64) {
	sc := getReleaseScratch()
	for _, node := range nodes {
		fb.releaseOne(node, sc)
	}
	fb.flushRelease(sc)
}

// releaseOne drops one reference, entirely lock-free. The slot is read
// before the decrement (stable while the caller still holds the
// reference). A node whose count hits zero retires when valid; when
// invalid — its load aborted — the mapping is unmapped under a CAS claim
// so the slot returns to standby without stale state. Losing that claim
// means a concurrent reservation already adopted the mapping, which then
// owns it. The scratch records (slot, node) pairs, not bare slots: once
// the count hits zero the entry is up for grabs, so by the time
// flushRelease runs a concurrent allocation may have evicted the node
// and reassigned the slot — the flush re-validates the pairing and
// drops entries it has been overtaken on.
func (fb *FeatureBuffer) releaseOne(node int64, sc *releaseScratch) {
	e := &fb.entries[node]
	slot := e.slot.Load()
	r := e.ref.Add(-1)
	if r < 0 {
		panic(fmt.Sprintf("core: release of unreferenced node %d", node))
	}
	if r > 0 {
		return
	}
	if e.valid.Load() {
		sc.retire = append(sc.retire, slotNode{slot, node})
		return
	}
	if e.ref.CompareAndSwap(0, -1) {
		if e.valid.Load() {
			e.ref.Store(0)
			sc.retire = append(sc.retire, slotNode{slot, node})
		} else {
			e.slot.Store(-1)
			e.ref.Store(0)
			sc.unmap = append(sc.unmap, slotNode{slot, node})
		}
	}
}

// flushRelease queues the batch's retired slots on the standby list in
// one lock acquisition and wakes blocked reservers. A retiring slot that
// never left the list (lazy deletion) moves to the tail so the LRU order
// matches eager removal exactly.
//
// Each entry is re-validated under the standby lock before it acts:
// between releaseOne's refcount decrement and this flush, a concurrent
// allocation may have popped the lazily-listed slot, evicted the node,
// and handed the slot to a new mapping. A stale entry — the reverse
// mapping no longer names the released node, or (for retires) the node
// no longer maps the slot — is dropped; whoever overtook it owns the
// slot now and that party's own flush, spare return, or rollback
// accounts for it. The validated push may still list a slot whose new
// owner is live (the mapping stands but was re-referenced, or its
// install is completing); that is the ordinary lazy-deletion state,
// which allocation tolerates by re-checking the owner's refcount and
// slot before evicting.
func (fb *FeatureBuffer) flushRelease(sc *releaseScratch) {
	if len(sc.retire)+len(sc.unmap) > 0 {
		sb := &fb.sb
		sb.mu.Lock()
		for _, rn := range sc.retire {
			s := rn.slot
			if sb.reverse[s] != rn.node || fb.entries[rn.node].slot.Load() != s {
				continue // overtaken: the slot has a new owner
			}
			if sb.list.inList[s] {
				sb.list.moveToTail(s)
			} else {
				sb.list.pushTail(s)
			}
		}
		for _, rn := range sc.unmap {
			s := rn.slot
			if sb.reverse[s] != rn.node {
				continue // overtaken: the slot has a new owner
			}
			sb.reverse[s] = -1
			if !sb.list.inList[s] {
				sb.list.pushTail(s)
			}
		}
		sb.mu.Unlock()
		sb.cond.Broadcast()
	}
	releaseScratchPool.Put(sc)
}

// RefCount reports a node's current reference count (tests/inspection).
func (fb *FeatureBuffer) RefCount(node int64) int32 {
	return fb.entries[node].ref.Load()
}

// Valid reports whether a node's data is currently valid in the buffer.
func (fb *FeatureBuffer) Valid(node int64) bool {
	return fb.entries[node].valid.Load()
}

// StandbyLen returns the number of standby slots (tests/inspection). With
// lazy deletion a just-re-referenced slot may still be counted until an
// allocation skips it or its release moves it; at quiescence the count is
// exact.
func (fb *FeatureBuffer) StandbyLen() int {
	fb.sb.mu.Lock()
	defer fb.sb.mu.Unlock()
	return fb.sb.list.length
}

// TotalRefs sums every node's reference count (leak checks: it must be
// zero after an epoch completes, fails, or is cancelled).
func (fb *FeatureBuffer) TotalRefs() int64 {
	var sum int64
	for i := range fb.entries {
		sum += int64(fb.entries[i].ref.Load())
	}
	return sum
}

// Stats summarizes buffer effectiveness.
type FeatureBufferStats struct {
	ReuseHits    int64 // nodes served without I/O
	Loads        int64 // nodes loaded from storage
	SharedWaits  int64 // nodes awaited from a concurrent extractor
	SlotRecycles int64 // retired nodes evicted on slot reuse
	StandbyWaits int64 // reservations that blocked waiting for a free slot
}

// Stats returns a snapshot of the buffer counters.
func (fb *FeatureBuffer) Stats() FeatureBufferStats {
	return FeatureBufferStats{
		ReuseHits:    fb.reuseHits.Load(),
		Loads:        fb.loads.Load(),
		SharedWaits:  fb.sharedWaits.Load(),
		SlotRecycles: fb.slotRecycles.Load(),
		StandbyWaits: fb.standbyWaits.Load(),
	}
}

// standbyList is an intrusive doubly-linked list over slot indexes with
// O(1) push/pop/remove — the paper's hash-tracked LRU standby list, using
// the slot index itself as the key.
type standbyList struct {
	next, prev []int32
	inList     []bool
	head, tail int32
	length     int
}

func (l *standbyList) init(slots int) {
	l.next = make([]int32, slots)
	l.prev = make([]int32, slots)
	l.inList = make([]bool, slots)
	l.head, l.tail = -1, -1
}

func (l *standbyList) empty() bool { return l.length == 0 }

func (l *standbyList) pushTail(s int32) {
	if l.inList[s] {
		panic(fmt.Sprintf("core: slot %d already on standby", s))
	}
	l.inList[s] = true
	l.next[s] = -1
	l.prev[s] = l.tail
	if l.tail >= 0 {
		l.next[l.tail] = s
	} else {
		l.head = s
	}
	l.tail = s
	l.length++
}

func (l *standbyList) pushHead(s int32) {
	if l.inList[s] {
		panic(fmt.Sprintf("core: slot %d already on standby", s))
	}
	l.inList[s] = true
	l.prev[s] = -1
	l.next[s] = l.head
	if l.head >= 0 {
		l.prev[l.head] = s
	} else {
		l.tail = s
	}
	l.head = s
	l.length++
}

// moveToTail re-queues a member slot as most-recently retired. Hot on the
// release path (every lazily-listed slot that retires again), so it
// unlinks and relinks directly instead of going through remove/pushTail.
func (l *standbyList) moveToTail(s int32) {
	if l.tail == s {
		return
	}
	p, n := l.prev[s], l.next[s]
	if p >= 0 {
		l.next[p] = n
	} else {
		l.head = n
	}
	l.prev[n] = p // n >= 0: s is not the tail
	l.prev[s] = l.tail
	l.next[s] = -1
	l.next[l.tail] = s
	l.tail = s
}

func (l *standbyList) popHead() int32 {
	s := l.head
	if s < 0 {
		panic("core: pop from empty standby list")
	}
	l.remove(s)
	return s
}

func (l *standbyList) remove(s int32) {
	if !l.inList[s] {
		panic(fmt.Sprintf("core: slot %d not on standby", s))
	}
	if l.prev[s] >= 0 {
		l.next[l.prev[s]] = l.next[s]
	} else {
		l.head = l.next[s]
	}
	if l.next[s] >= 0 {
		l.prev[l.next[s]] = l.prev[s]
	} else {
		l.tail = l.prev[s]
	}
	l.inList[s] = false
	l.length--
}
