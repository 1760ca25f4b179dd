package sim

import (
	"runtime"

	"anondyn/internal/core"
	"anondyn/internal/network"
)

// recvScratch is one receiver-loop worker's private scratch: the
// delivery and in-neighbor gather buffers plus the round counters that
// would otherwise contend on the shared Result. The sequential loop
// uses scratch[0]; parallel rounds give every pool worker its own
// entry, engine-owned and reused across rounds so the steady state
// allocates nothing.
type recvScratch struct {
	deliveries []core.Delivery
	inbuf      []int // in-neighbor gather buffer (delivery core)
	delivered  int
	bytes      int
	oversized  int
}

// roundTask is one contiguous receiver range of one round, handed to a
// pool worker. Everything a worker touches through it is either frozen
// for the round or private to the task's scratch — see deliverRange.
type roundTask struct {
	e      *Engine
	t      int
	lo, hi int
	edges  *network.EdgeSet
	s      *recvScratch
}

// roundPool is the persistent worker pool behind Config.RoundWorkers.
// Workers block on the task channel between rounds; the pool survives
// Reset (Monte-Carlo batches pay the goroutine spawn once, not per
// run) and is re-created only when the resolved worker count changes.
type roundPool struct {
	tasks chan roundTask
	size  int
}

func newRoundPool(size int) *roundPool {
	p := &roundPool{tasks: make(chan roundTask, size), size: size}
	for i := 0; i < size; i++ {
		// Workers capture only the channel, never the pool struct, so an
		// engine dropped without Close leaves the pool unreachable and
		// the finalizer below can release the goroutines.
		go poolWorker(p.tasks)
	}
	runtime.SetFinalizer(p, func(p *roundPool) { close(p.tasks) })
	return p
}

func poolWorker(tasks <-chan roundTask) {
	for task := range tasks {
		task.e.deliverRange(task.t, task.lo, task.hi, task.edges, task.s)
		task.e.wg.Done()
	}
}

// Close releases the engine's parallel-round workers. Idempotent, and
// optional — a dropped engine's pool is reclaimed by a finalizer — but
// deterministic for callers that want the goroutines gone now. The
// engine stays usable: a later parallel round re-creates the pool.
func (e *Engine) Close() {
	if e.pool != nil {
		runtime.SetFinalizer(e.pool, nil)
		close(e.pool.tasks)
		e.pool = nil
	}
}

// ensurePool sizes the pool and the per-worker scratch for this run's
// worker count and network size. Steady rounds re-enter with
// everything already sized and allocate nothing.
func (e *Engine) ensurePool() {
	k := e.workers
	if e.pool != nil && e.pool.size != k {
		e.Close()
	}
	if e.pool == nil {
		e.pool = newRoundPool(k)
	}
	for len(e.scratch) < k {
		e.scratch = append(e.scratch, recvScratch{})
	}
	n := e.cfg.N
	for i := 0; i < k; i++ {
		s := &e.scratch[i]
		if cap(s.deliveries) < n {
			s.deliveries = make([]core.Delivery, 0, n) // max in-degree is n−1
		}
		if cap(s.inbuf) < n {
			s.inbuf = make([]int, 0, n)
		}
	}
}

// parallelRound shards the receiver loop into contiguous ranges across
// the pool and folds the per-worker counters after the join. The
// per-receiver work is deliverRange — identical to the sequential
// loop — and every written location is owned by exactly one worker
// (receiver-indexed state by the range split, counters by the
// per-worker scratch), so the result is bit-for-bit the sequential
// one: integer counter sums are order-independent, and per-receiver
// delivery order never crosses a range boundary.
func (e *Engine) parallelRound(t int, edges *network.EdgeSet) (delivered int) {
	e.ensurePool()
	if edges.IsSparse() {
		// CSR views build lazily, and a build writes the set: force the one
		// view workers read — receiver-major; deliverRange's gathers and
		// nothing else touch the set — before the fan-out, so every worker-
		// side InCSR/InList is a plain read. The sender-major view stays
		// unbuilt; nothing in a round reads it.
		edges.InCSR()
	}
	k := e.workers
	n := e.cfg.N
	e.wg.Add(k)
	for i := 0; i < k; i++ {
		e.pool.tasks <- roundTask{
			e: e, t: t, lo: i * n / k, hi: (i + 1) * n / k,
			edges: edges, s: &e.scratch[i],
		}
	}
	e.wg.Wait()
	for i := 0; i < k; i++ {
		delivered += e.foldScratch(&e.scratch[i])
	}
	return delivered
}
