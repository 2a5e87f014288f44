//go:build linux

package linuring

// Raw io_uring plumbing: the two syscalls (io_uring_setup,
// io_uring_enter), the mmap'd submission and completion rings, and the
// SQE/CQE wire structures — no cgo, no third-party bindings, go.mod
// stays zero-dep. Only what the backend needs is implemented: batched
// READ submission and NOP for reaper wake-up.
//
// Memory model: SQ head and CQ tail are written by the kernel and read
// here with atomic loads; SQ tail and CQ head are written here with
// atomic stores after the corresponding entries are populated/consumed,
// which is exactly the acquire/release pairing the io_uring ABI
// documents. A single submitter mutex (held by the backend) serializes
// SQE population, so the local tail shadow needs no atomics of its own.

import (
	"fmt"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// Linux syscall numbers, uniform across architectures since 5.1 (both
// x86_64 and the asm-generic table assign 425 and 426).
const (
	sysIOUringSetup = 425
	sysIOUringEnter = 426
)

// Opcodes and flags used by this backend.
const (
	opNop  = 0
	opRead = 22

	enterGetEvents = 1 << 0

	offSQRing = 0x0
	offCQRing = 0x8000000
	offSQEs   = 0x10000000

	featSingleMmap = 1 << 0
)

// sqringOffsets mirrors struct io_sqring_offsets.
type sqringOffsets struct {
	head, tail, ringMask, ringEntries, flags, dropped, array, resv1 uint32
	userAddr                                                        uint64
}

// cqringOffsets mirrors struct io_cqring_offsets.
type cqringOffsets struct {
	head, tail, ringMask, ringEntries, overflow, cqes, flags, resv1 uint32
	userAddr                                                        uint64
}

// uringParams mirrors struct io_uring_params (120 bytes).
type uringParams struct {
	sqEntries    uint32
	cqEntries    uint32
	flags        uint32
	sqThreadCPU  uint32
	sqThreadIdle uint32
	features     uint32
	wqFd         uint32
	resv         [3]uint32
	sqOff        sqringOffsets
	cqOff        cqringOffsets
}

// sqe mirrors struct io_uring_sqe (64 bytes).
type sqe struct {
	opcode      uint8
	flags       uint8
	ioprio      uint16
	fd          int32
	off         uint64
	addr        uint64
	len         uint32
	rwFlags     uint32
	userData    uint64
	bufIndex    uint16
	personality uint16
	spliceFdIn  int32
	addr3       uint64
	_pad2       uint64
}

// cqe mirrors struct io_uring_cqe (16 bytes).
type cqe struct {
	userData uint64
	res      int32
	flags    uint32
}

// uring is one mmap'd kernel ring. The owner serializes pushSQE/flush
// behind a mutex; reap runs concurrently from the completion goroutine.
type uring struct {
	fd      int
	params  uringParams
	entries uint32

	sqMem  []byte // SQ ring mapping (also CQ ring under FEAT_SINGLE_MMAP)
	cqMem  []byte // CQ ring mapping (nil under FEAT_SINGLE_MMAP)
	sqeMem []byte // SQE array mapping

	sqHead  *uint32
	sqTail  *uint32
	sqMask  uint32
	sqArray unsafe.Pointer // [entries]uint32
	sqes    unsafe.Pointer // [entries]sqe

	cqHead *uint32
	cqTail *uint32
	cqMask uint32
	cqes   unsafe.Pointer // [cqEntries]cqe

	// tailShadow is the next SQ tail value; written only under the
	// owner's submit mutex and published to the kernel by flushTail.
	tailShadow uint32
}

// setupRing creates an io_uring of the given SQ depth and maps its
// rings. The error preserves the errno so callers can classify
// ENOSYS/EPERM (kernel refuses io_uring entirely) for the fallback
// ladder.
func setupRing(entries int) (*uring, error) {
	if entries < 1 {
		entries = 1
	}
	u := &uring{}
	fd, _, errno := syscall.Syscall(sysIOUringSetup, uintptr(entries),
		uintptr(unsafe.Pointer(&u.params)), 0)
	if errno != 0 {
		return nil, fmt.Errorf("linuring: io_uring_setup(%d): %w", entries, errno)
	}
	u.fd = int(fd)
	u.entries = u.params.sqEntries
	if err := u.mmapRings(); err != nil {
		syscall.Close(u.fd)
		return nil, err
	}
	return u, nil
}

func (u *uring) mmapRings() error {
	p := &u.params
	sqSize := int(p.sqOff.array) + int(p.sqEntries)*4
	cqSize := int(p.cqOff.cqes) + int(p.cqEntries)*int(unsafe.Sizeof(cqe{}))
	single := p.features&featSingleMmap != 0
	if single && cqSize > sqSize {
		sqSize = cqSize
	}
	mem, err := syscall.Mmap(u.fd, offSQRing, sqSize,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED|syscall.MAP_POPULATE)
	if err != nil {
		return fmt.Errorf("linuring: mmap sq ring: %w", err)
	}
	u.sqMem = mem
	cqMem := mem
	if !single {
		cqMem, err = syscall.Mmap(u.fd, offCQRing, cqSize,
			syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED|syscall.MAP_POPULATE)
		if err != nil {
			syscall.Munmap(u.sqMem)
			return fmt.Errorf("linuring: mmap cq ring: %w", err)
		}
		u.cqMem = cqMem
	}
	sqeBytes := int(p.sqEntries) * int(unsafe.Sizeof(sqe{}))
	u.sqeMem, err = syscall.Mmap(u.fd, offSQEs, sqeBytes,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED|syscall.MAP_POPULATE)
	if err != nil {
		syscall.Munmap(u.sqMem)
		if u.cqMem != nil {
			syscall.Munmap(u.cqMem)
		}
		return fmt.Errorf("linuring: mmap sqes: %w", err)
	}

	u.sqHead = (*uint32)(unsafe.Pointer(&mem[p.sqOff.head]))
	u.sqTail = (*uint32)(unsafe.Pointer(&mem[p.sqOff.tail]))
	u.sqMask = *(*uint32)(unsafe.Pointer(&mem[p.sqOff.ringMask]))
	u.sqArray = unsafe.Pointer(&mem[p.sqOff.array])
	u.sqes = unsafe.Pointer(&u.sqeMem[0])
	u.cqHead = (*uint32)(unsafe.Pointer(&cqMem[p.cqOff.head]))
	u.cqTail = (*uint32)(unsafe.Pointer(&cqMem[p.cqOff.tail]))
	u.cqMask = *(*uint32)(unsafe.Pointer(&cqMem[p.cqOff.ringMask]))
	u.cqes = unsafe.Pointer(&cqMem[p.cqOff.cqes])
	u.tailShadow = atomic.LoadUint32(u.sqTail)
	return nil
}

// sqeAt returns the i-th SQE slot (i already masked).
func (u *uring) sqeAt(i uint32) *sqe {
	return (*sqe)(unsafe.Add(u.sqes, uintptr(i)*unsafe.Sizeof(sqe{})))
}

// cqeAt returns the i-th CQE slot (i already masked).
func (u *uring) cqeAt(i uint32) *cqe {
	return (*cqe)(unsafe.Add(u.cqes, uintptr(i)*unsafe.Sizeof(cqe{})))
}

// sqFree reports how many SQE slots are free right now.
func (u *uring) sqFree() uint32 {
	return u.entries - (u.tailShadow - atomic.LoadUint32(u.sqHead))
}

// pushSQE stages one SQE without publishing it; returns false when the
// SQ ring is full. Caller holds the submit mutex; flushTail publishes.
func (u *uring) pushSQE(e *sqe) bool {
	if u.sqFree() == 0 {
		return false
	}
	idx := u.tailShadow & u.sqMask
	*u.sqeAt(idx) = *e
	*(*uint32)(unsafe.Add(u.sqArray, uintptr(idx)*4)) = idx
	u.tailShadow++
	return true
}

// flushTail publishes all staged SQEs to the kernel and returns how many
// are pending submission.
func (u *uring) flushTail() int {
	tail := u.tailShadow
	n := int(tail - atomic.LoadUint32(u.sqTail))
	atomic.StoreUint32(u.sqTail, tail)
	return n
}

// enter performs io_uring_enter, retrying EINTR. toSubmit staged SQEs
// are handed to the kernel; with enterGetEvents it also blocks for
// minComplete completions.
func (u *uring) enter(toSubmit, minComplete int, flags uint32) (int, error) {
	for {
		n, _, errno := syscall.Syscall6(sysIOUringEnter, uintptr(u.fd),
			uintptr(toSubmit), uintptr(minComplete), uintptr(flags), 0, 0)
		if errno == syscall.EINTR {
			continue
		}
		if errno != 0 {
			return 0, fmt.Errorf("linuring: io_uring_enter: %w", errno)
		}
		return int(n), nil
	}
}

// reapCQE pops one completion if available. Safe concurrently with the
// submit side; only one reaper consumes the CQ.
func (u *uring) reapCQE() (userData uint64, res int32, ok bool) {
	head := atomic.LoadUint32(u.cqHead)
	if head == atomic.LoadUint32(u.cqTail) {
		return 0, 0, false
	}
	e := u.cqeAt(head & u.cqMask)
	userData, res = e.userData, e.res
	atomic.StoreUint32(u.cqHead, head+1)
	return userData, res, true
}

// close unmaps the rings and closes the ring fd. The caller guarantees
// no submissions or reaps are in flight.
func (u *uring) close() {
	syscall.Munmap(u.sqeMem)
	if u.cqMem != nil {
		syscall.Munmap(u.cqMem)
	}
	syscall.Munmap(u.sqMem)
	syscall.Close(u.fd)
}
