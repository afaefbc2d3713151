package sim

import (
	"shotgun/internal/isa"
	"shotgun/internal/workload"
)

// A sampled run spends most of its blocks in the functional fast-forward
// (core.SkimBlocks, core.WarmBlocks), where producing a block — decoding
// a trace or walking the program — costs about as much as the warming
// that consumes it. readAhead moves the producing half onto a goroutine
// of its own: it pulls the source stream a bounded distance ahead into
// fixed chunks that the core drains in order, so the block sequence and
// every result are unchanged. Only sampled runs use it; an exact run's
// core spends far longer per block than the stream does, and read-ahead
// bought it nothing.
const (
	// readAheadChunk is how many blocks the producer hands over at once:
	// large enough that the two goroutines meet once per several
	// thousand blocks.
	readAheadChunk = 4096
	// readAheadDepth is how many chunks exist: one being drained, the
	// others filled or being filled, so the producer runs at most
	// readAheadDepth*readAheadChunk blocks ahead of the core.
	readAheadDepth = 3
)

type blockChunk [readAheadChunk]isa.BasicBlock

// readAhead is a workload.Stream that serves src's blocks from chunks
// filled by a producer goroutine. The goroutine is the only reader of
// src between start and stop; the consumer (the core) is the only
// caller of Next. Whoever calls start must call stop, which joins the
// goroutine, before the run returns.
type readAhead struct {
	src workload.Stream

	// free carries empty chunks to the producer and full carries filled
	// ones back; each has room for every chunk, so neither send blocks.
	// The producer closes full when it returns.
	free, full chan *blockChunk
	// quit asks the producer to return.
	quit chan struct{}
	// fault holds what the producer recovered when src.Next panicked or
	// exited its goroutine; the consumer reads it only after full is
	// closed, which orders the write before the read.
	fault any

	cur *blockChunk
	pos int
}

func newReadAhead(src workload.Stream) *readAhead {
	return &readAhead{src: src, pos: readAheadChunk}
}

// start launches the producer with every chunk empty.
func (r *readAhead) start() {
	r.free = make(chan *blockChunk, readAheadDepth)
	r.full = make(chan *blockChunk, readAheadDepth)
	r.quit = make(chan struct{})
	for range readAheadDepth {
		r.free <- new(blockChunk)
	}
	go r.produce()
}

// produce fills empty chunks from src in stream order until stop. A
// panic in src.Next ends it with the panic recorded in fault; full is
// closed either way, so a consumer waiting for a chunk always wakes.
func (r *readAhead) produce() {
	completed := false
	defer func() {
		if !completed {
			r.fault = recover()
			if r.fault == nil {
				// runtime.Goexit: there is no panic value to carry.
				r.fault = "sim: block stream's Next exited its goroutine"
			}
		}
		close(r.full)
	}()
	for {
		var c *blockChunk
		select {
		case c = <-r.free:
		case <-r.quit:
			completed = true
			return
		}
		for i := range c {
			c[i] = r.src.Next()
		}
		r.full <- c
	}
}

// Next returns the next block of src.
func (r *readAhead) Next() isa.BasicBlock {
	if r.pos == readAheadChunk {
		r.advance()
	}
	bb := r.cur[r.pos]
	r.pos++
	return bb
}

// advance returns the drained chunk to the producer and waits for the
// next one. If the producer has ended on a panic in src, the panic is
// raised again here, on the consumer's goroutine, with the same value.
func (r *readAhead) advance() {
	if r.cur != nil {
		r.free <- r.cur
	}
	c, ok := <-r.full
	if !ok {
		panic(r.fault)
	}
	r.cur, r.pos = c, 0
}

// stop ends the producer and waits for its goroutine to exit, which
// closes full. A panic the producer met past the last block the core
// consumed is dropped: the run never needed that block.
func (r *readAhead) stop() {
	close(r.quit)
	for range r.full {
	}
}
