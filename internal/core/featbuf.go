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
	"sync"
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
// slot holding (or receiving) its feature vector, a reference count, a
// valid bit, and whether the node belongs to the resident tier
// (holdHottest; the flag sits in the struct's padding). A node is in one
// of three states:
//
//   - unmapped: slot -1, ref 0, not valid;
//   - pinned: ref ≥ 1, its slot fixed until the last release — valid
//     once loaded, loading until then;
//   - retired: ref 0 and valid, its slot on the standby list until a
//     miss evicts it — or, for a resident, off the list for good.
type mapEntry struct {
	slot, ref       int32
	valid, resident bool
}

// FeatureBuffer is GNNDrive's device-side feature store plus its
// host-side metadata (§4.1): the mapping table, the slot→node reverse
// mapping and the LRU standby list of unreferenced slots, all behind one
// mutex that a reserve or a release takes once per batch. Feature rows
// are written and read outside it, because a slot is never reassigned
// while referenced. Slots beyond the pipeline's working set hold a
// resident tier of the highest-degree nodes, which retire off the
// standby list and so are never evicted (holdHottest).
type FeatureBuffer struct {
	dim   int
	slots int
	data  []float32 // slots x dim backing store

	mu      sync.Mutex
	entries []mapEntry
	reverse []int64 // slot -> node, -1 when empty
	standby standbyList
	// standbyCond parks reserves the standby list cannot cover, validCond
	// WaitValidCtx callers; the waiter counts let Release and MarkValid
	// skip the broadcast when nobody is parked.
	standbyCond, validCond       sync.Cond
	standbyWaiters, validWaiters int
	stats                        FeatureBufferStats
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
		data:    make([]float32, int64(slots)*int64(dim)),
		entries: make([]mapEntry, numNodes),
		reverse: make([]int64, slots),
	}
	fb.standbyCond.L = &fb.mu
	fb.validCond.L = &fb.mu
	for i := range fb.entries {
		fb.entries[i].slot = -1
	}
	// All slots start free: queue them in index order.
	fb.standby.init(slots)
	for s := range fb.reverse {
		fb.reverse[s] = -1
		fb.standby.pushTail(int32(s))
	}
	return fb
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

// ReserveCtx implements Algorithm 1's reuse scan and slot allocation for
// the node list of one mini-batch, taking a reference on every node;
// Release gives them back after training.
//
// The batch is reserved whole, under the lock, or not at all. When the
// standby list cannot cover it — a slot for every miss and for every
// retired hit, whose slot leaves the list when pinned — the reserve
// parks holding nothing until a release changes that; a cancelled ctx
// (paired with Interrupt for prompt wake-up) ends the wait. Then every
// mapped node is pinned before any miss takes a slot, so a miss never
// evicts a node the same batch hits. A node another reserver is loading
// goes on the Wait list; a miss is mapped to the victim slot and goes on
// ToLoad.
func (fb *FeatureBuffer) ReserveCtx(ctx context.Context, nodes []int64) (*Reservation, error) {
	if len(nodes) > fb.slots {
		return nil, fmt.Errorf("%w: batch of %d nodes, %d slots", ErrBufferTooSmall, len(nodes), fb.slots)
	}
	res := getReservation(len(nodes))
	fb.mu.Lock()
	defer fb.mu.Unlock()
	if fb.standby.length < len(nodes) {
		if err := fb.waitStandby(ctx, nodes); err != nil {
			PutReservation(res)
			return nil, err
		}
	}
	misses := 0
	for i, node := range nodes {
		e := &fb.entries[node]
		if e.slot < 0 {
			res.Alias[i] = -1
			misses++
			continue
		}
		res.Alias[i] = e.slot
		switch {
		case e.ref == 0: // retired: protect it from eviction
			if !e.resident {
				fb.standby.remove(e.slot)
			}
			fb.stats.ReuseHits++
		case e.valid:
			fb.stats.ReuseHits++
		default:
			res.Wait = append(res.Wait, node)
			fb.stats.SharedWaits++
		}
		e.ref++
	}
	for i := 0; misses > 0; i++ {
		if res.Alias[i] >= 0 {
			continue
		}
		misses--
		node := nodes[i]
		e := &fb.entries[node]
		if e.slot >= 0 {
			// Listed twice in the batch: its first copy is loading it.
			res.Alias[i] = e.slot
			e.ref++
			res.Wait = append(res.Wait, node)
			fb.stats.SharedWaits++
			continue
		}
		s := fb.evict()
		e.slot, e.ref = s, 1
		fb.reverse[s] = node
		res.Alias[i] = s
		res.ToLoad = append(res.ToLoad, int32(i))
		fb.stats.Loads++
	}
	return res, nil
}

// waitStandby parks until the standby list covers the batch, ctx is done,
// or reserveTimeout passes, re-counting the batch's need on every wake:
// a slot per miss and per retired hit off the resident tier. The timeout
// guard is armed once per parked reserve. Caller holds fb.mu.
func (fb *FeatureBuffer) waitStandby(ctx context.Context, nodes []int64) error {
	var guard *time.Timer
	expired := false
	for {
		need := 0
		for _, node := range nodes {
			if e := &fb.entries[node]; e.slot < 0 || e.ref == 0 && !e.resident {
				need++
			}
		}
		var err error
		switch {
		case need <= fb.standby.length:
		case ctx.Err() != nil:
			err = ctx.Err()
		case expired:
			err = fmt.Errorf("%w: waited %v for %d standby slots; increase FeatureSlots or reduce extractors",
				ErrBufferTooSmall, reserveTimeout, need)
		default:
			if guard == nil {
				fb.stats.StandbyWaits++
				guard = time.AfterFunc(reserveTimeout, func() {
					fb.mu.Lock()
					expired = true
					fb.standbyCond.Broadcast()
					fb.mu.Unlock()
				})
			}
			fb.standbyWaiters++
			fb.standbyCond.Wait()
			fb.standbyWaiters--
			continue
		}
		if guard != nil {
			guard.Stop()
		}
		return err
	}
}

// evict hands a miss its slot: the victim is the standby list's least
// recently retired slot, the paper's LRU, and the retired node it still
// holds is unmapped (deferred invalidation, §4.2). Victim choice lives
// here and nowhere else. Caller holds fb.mu and has checked the list
// is not empty.
func (fb *FeatureBuffer) evict() int32 {
	s := fb.standby.popHead()
	if prev := fb.reverse[s]; prev >= 0 {
		e := &fb.entries[prev]
		e.slot, e.valid = -1, false
		fb.stats.SlotRecycles++
	}
	return s
}

// MarkValid publishes a node's data as extracted (valid bit = 1) and
// wakes extractors waiting on shared nodes.
func (fb *FeatureBuffer) MarkValid(node int64) {
	fb.markValid([]int64{node})
}

// markValid sets the valid bit of every listed node under one lock hold —
// a device transfer's completion marks its whole drain at once — and
// wakes WaitValidCtx callers when any are parked.
func (fb *FeatureBuffer) markValid(nodes []int64) {
	fb.mu.Lock()
	for _, node := range nodes {
		fb.entries[node].valid = true
	}
	if fb.validWaiters > 0 {
		fb.validCond.Broadcast()
	}
	fb.mu.Unlock()
}

// WaitValidCtx blocks until every listed node's valid bit is set — the
// wait-list re-examination at the end of Algorithm 1. It returns ctx.Err()
// when the context is cancelled mid-wait (the loading extractor may have
// failed, so the valid bit would never arrive). Pair with Interrupt for
// prompt wake-up.
func (fb *FeatureBuffer) WaitValidCtx(ctx context.Context, nodes []int64) error {
	if len(nodes) == 0 {
		return nil
	}
	fb.mu.Lock()
	defer fb.mu.Unlock()
	for _, node := range nodes {
		for !fb.entries[node].valid {
			if err := ctx.Err(); err != nil {
				return err
			}
			fb.validWaiters++
			fb.validCond.Wait()
			fb.validWaiters--
		}
	}
	return nil
}

// Interrupt wakes every goroutine blocked in ReserveCtx or WaitValidCtx
// so it can observe a cancelled context.
func (fb *FeatureBuffer) Interrupt() {
	fb.mu.Lock()
	fb.standbyCond.Broadcast()
	fb.validCond.Broadcast()
	fb.mu.Unlock()
}

// Release decrements the nodes' reference counts after training. A valid
// node whose count reaches zero retires to the standby tail (most
// recently retired), keeping its data for inter-batch reuse; a resident
// retires off the list, where no miss can evict it. A node
// released while still invalid — its extraction was aborted — is
// unmapped, and its empty slot queues behind the batch's retired ones, so
// a later reservation of the node loads it afresh.
func (fb *FeatureBuffer) Release(nodes []int64) {
	fb.mu.Lock()
	aborted := false
	for _, node := range nodes {
		e := &fb.entries[node]
		if e.ref <= 0 {
			fb.mu.Unlock()
			panic(fmt.Sprintf("core: release of unreferenced node %d", node))
		}
		e.ref--
		switch {
		case e.ref > 0, e.valid && e.resident:
		case e.valid:
			fb.standby.pushTail(e.slot)
		default:
			aborted = true
		}
	}
	if aborted {
		for _, node := range nodes {
			if e := &fb.entries[node]; e.ref == 0 && !e.valid && e.slot >= 0 {
				fb.reverse[e.slot] = -1
				fb.standby.pushTail(e.slot)
				e.slot = -1
			}
		}
	}
	if fb.standbyWaiters > 0 {
		fb.standbyCond.Broadcast()
	}
	fb.mu.Unlock()
}

// holdHottest makes the h highest-degree nodes of the graph whose CSC
// index pointers are indptr the resident tier, replacing any earlier
// tier; ties go to the lower node ID. Call it before the first reserve.
// The threshold comes from a degree histogram, so the pick is O(N) time
// and O(max degree) space; degrees beyond the node count share its top
// bucket.
//
// Liveness: a retired resident holds its slot off the standby list, so
// at most h slots are outside the reserve path's reach. Sizing h as the
// slots beyond every sharing engine's AutoFeatureSlots leaves the rest
// of the pipeline at least that working set.
func (fb *FeatureBuffer) holdHottest(indptr []int64, h int) {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	n := len(fb.entries)
	degree := func(v int) int { return int(min(indptr[v+1]-indptr[v], int64(n))) }
	top := 0
	for v := range fb.entries {
		fb.entries[v].resident = false
		top = max(top, degree(v))
	}
	if h <= 0 {
		return
	}
	h = min(h, n)
	hist := make([]int, top+1)
	for v := range fb.entries {
		hist[degree(v)]++
	}
	// Every node above the threshold degree is resident, and the first
	// ties at it fill the rest of the tier in ID order.
	threshold, ties := 0, h
	for d := top; d >= 0; d-- {
		if hist[d] >= ties {
			threshold = d
			break
		}
		ties -= hist[d]
	}
	for v := range fb.entries {
		switch d := degree(v); {
		case d > threshold:
		case d == threshold && ties > 0:
			ties--
		default:
			continue
		}
		fb.entries[v].resident = true
	}
}

// RefCount reports a node's current reference count (tests/inspection).
func (fb *FeatureBuffer) RefCount(node int64) int32 {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	return fb.entries[node].ref
}

// Valid reports whether a node's data is currently valid in the buffer.
func (fb *FeatureBuffer) Valid(node int64) bool {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	return fb.entries[node].valid
}

// StandbyLen returns the number of standby slots (tests/inspection).
func (fb *FeatureBuffer) StandbyLen() int {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	return fb.standby.length
}

// TotalRefs sums every node's reference count (leak checks: it must be
// zero after an epoch completes, fails, or is cancelled).
func (fb *FeatureBuffer) TotalRefs() int64 {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	var sum int64
	for i := range fb.entries {
		sum += int64(fb.entries[i].ref)
	}
	return sum
}

// FeatureBufferStats summarizes buffer effectiveness.
type FeatureBufferStats struct {
	ReuseHits    int64 // nodes served without I/O
	Loads        int64 // nodes loaded from storage
	SharedWaits  int64 // nodes awaited from a concurrent extractor
	SlotRecycles int64 // retired nodes evicted on slot reuse
	StandbyWaits int64 // reservations that blocked waiting for a free slot
}

// Sub returns the field-wise difference s - o (an interval between two
// snapshots).
func (s FeatureBufferStats) Sub(o FeatureBufferStats) FeatureBufferStats {
	s.ReuseHits -= o.ReuseHits
	s.Loads -= o.Loads
	s.SharedWaits -= o.SharedWaits
	s.SlotRecycles -= o.SlotRecycles
	s.StandbyWaits -= o.StandbyWaits
	return s
}

// Stats returns a snapshot of the buffer counters.
func (fb *FeatureBuffer) Stats() FeatureBufferStats {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	return fb.stats
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
