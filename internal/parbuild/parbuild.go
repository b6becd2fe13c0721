// Package parbuild is the shared concurrent-build substrate for the
// recursive layout builders (PAW, Qd-tree, k-d tree).
//
// The recursive split structure of every builder is embarrassingly parallel
// across sibling subtrees: once a node's split is chosen, each child's
// subtree depends only on that child's box, rows and clipped queries. Pool
// exploits this with a bounded set of worker slots: a fan-out point tries to
// hand all but one sibling to free workers and recurses inline on the rest,
// so a saturated pool degrades to plain single-threaded recursion with no
// queueing, no blocking and no goroutine pile-up.
//
// # Determinism
//
// Parallel builds must produce byte-identical sealed layouts to serial
// builds. Pool guarantees the scheduling half of that contract:
//
//   - Fan writes task results into caller-indexed positions, so children are
//     assembled in declaration order regardless of completion order.
//   - FanChunks derives chunk boundaries from the task size and the fixed
//     pool width only — never from which workers happen to be free — so a
//     chunked sweep merges into the same output on every run.
//
// The builders supply the other half: per-task state is confined to the
// task, and shared scratch memory is keyed by worker slot (see below), which
// a task holds exclusively while it runs.
//
// # Worker slots and scratch
//
// Hot-path buffers (sort scratch, dedup sets, assignment sweeps) must be
// reused across recursion levels without cross-goroutine sharing. Pool
// identifies every executing goroutine by a small integer slot: workers own
// slots [0, Workers()) while running a task, and the goroutine that drives
// the build owns RootSlot(). A builder allocates Slots() scratch structures
// and indexes them by the slot passed to its task — at most one goroutine
// holds a given slot at any instant, so slot-indexed scratch needs no locks
// and, unlike sync.Pool, is never dropped between recursion levels.
package parbuild

import (
	"runtime"
	"sync"
)

// Pool is a bounded worker pool for recursive builds. The zero value and nil
// are valid serial pools (every task runs inline on the caller).
type Pool struct {
	// slots holds the free worker slot IDs; nil for a serial pool.
	slots   chan int
	workers int
}

// New returns a pool with the given number of workers. workers <= 0 selects
// runtime.GOMAXPROCS(0); workers == 1 yields a serial pool that never spawns
// a goroutine.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers}
	if workers > 1 {
		p.slots = make(chan int, workers)
		for i := 0; i < workers; i++ {
			p.slots <- i
		}
	}
	return p
}

// Workers returns the pool width (1 for a nil/serial pool).
func (p *Pool) Workers() int {
	if p == nil || p.workers < 1 {
		return 1
	}
	return p.workers
}

// Slots returns the number of distinct scratch identities tasks can observe:
// one per worker plus the root slot of the driving goroutine.
func (p *Pool) Slots() int { return p.Workers() + 1 }

// RootSlot returns the scratch identity of the goroutine driving the build
// (the one calling Fan from outside any task).
func (p *Pool) RootSlot() int { return p.Workers() }

// Fan runs tasks 0..n-1, farming as many as possible out to free workers and
// running the remainder inline on the calling goroutine. callerSlot is the
// slot identity the caller currently holds (RootSlot() at the top of a
// build, or the slot a surrounding Fan task received); inline tasks inherit
// it. The last task always runs inline — the caller would otherwise only
// block — and Fan returns after every task has completed.
//
// Fan never blocks waiting for a worker: when the pool is saturated the task
// simply runs inline, which is what bounds the goroutine count and makes
// deep recursions safe.
func (p *Pool) Fan(callerSlot, n int, task func(i, slot int)) {
	if n <= 0 {
		return
	}
	if p == nil || p.slots == nil || n == 1 {
		for i := 0; i < n; i++ {
			task(i, callerSlot)
		}
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < n-1; i++ {
		select {
		case slot := <-p.slots:
			wg.Add(1)
			go func(i, slot int) {
				defer wg.Done()
				defer func() { p.slots <- slot }()
				task(i, slot)
			}(i, slot)
		default:
			task(i, callerSlot)
		}
	}
	task(n-1, callerSlot)
	wg.Wait()
}

// FanChunks splits [0, n) into contiguous chunks of at least minChunk
// elements (at most Workers() chunks) and fans task over them. Chunk
// boundaries depend only on n, minChunk and the pool width — not on runtime
// scheduling — so chunk-indexed results merge deterministically. Returns the
// number of chunks (0 when n <= 0).
func (p *Pool) FanChunks(callerSlot, n, minChunk int, task func(chunk, lo, hi, slot int)) int {
	if n <= 0 {
		return 0
	}
	if minChunk < 1 {
		minChunk = 1
	}
	chunks := p.Workers()
	if max := n / minChunk; chunks > max {
		chunks = max
	}
	if chunks < 1 {
		chunks = 1
	}
	size := (n + chunks - 1) / chunks
	chunks = (n + size - 1) / size
	p.Fan(callerSlot, chunks, func(c, slot int) {
		lo := c * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		task(c, lo, hi, slot)
	})
	return chunks
}
